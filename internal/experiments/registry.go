package experiments

import (
	"fmt"

	"memhier/internal/core"
	"memhier/internal/workloads"
)

// MeasuredWorkload characterizes the named instrumented Go kernel at the
// small scale and cache-line granularity — the paper's §7 "trace collection
// + trace analysis" pipeline — returning both the model workload and the
// raw characterization (for CLIs that print α, β, γ, κ alongside).
func MeasuredWorkload(name string) (core.Workload, workloads.Characterization, error) {
	k, err := workloads.ByName(name, workloads.ScaleSmall)
	if err != nil {
		return core.Workload{}, workloads.Characterization{}, err
	}
	c, err := workloads.Characterize(k, workloads.CharacterizeOptions{LineSize: 64})
	if err != nil {
		return core.Workload{}, workloads.Characterization{}, err
	}
	return ModelWorkload(c), c, nil
}

// ResolveWorkload is the one name→workload registry shared by chc model,
// chc advisor, and the chc-serve API: paper Table 2 parameters by default,
// or an on-the-fly characterization of the instrumented kernel when
// measured is set. Names are case-insensitive in both modes.
func ResolveWorkload(name string, measured bool) (core.Workload, error) {
	if !measured {
		return core.PaperWorkloadByName(name)
	}
	wl, _, err := MeasuredWorkload(name)
	return wl, err
}

// Artifact returns the named artifact from the suite's registry (the same
// list -all renders), so chc repro's per-table flags and any future caller
// share one name→renderer table instead of duplicating the dispatch.
func (s *Suite) Artifact(name string) (Artifact, error) {
	arts := s.Artifacts()
	for _, a := range arts {
		if a.Name == name {
			return a, nil
		}
	}
	names := make([]string, len(arts))
	for i, a := range arts {
		names[i] = a.Name
	}
	return Artifact{}, fmt.Errorf("experiments: no artifact %q (have %v)", name, names)
}

package backend

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// deepAnchorFile pins the deep-hierarchy simulator's outputs: one SHA-256
// per (platform, kernel) run, over the run's WallCycles, Stats,
// ClassShare and Phases. referenceRun drives the same System as the
// engines, so it cannot catch a change inside the deep-level bookkeeping;
// these digests can.
//
// Regenerate (only for an intentional output change) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/sim/backend -run TestDeepRunsMatchGoldenAnchor
const deepAnchorFile = "testdata/deep_anchor.sha256"

// deepAnchorConfigs returns the anchored platforms: C5/C9/C11/C15 at 1/16
// capacity in 2- and 3-level forms (L2 = 4×L1 at 10 cycles, L3 = 4×L2 at
// 36 cycles), plus the modern multi-level presets at 1/16 capacity.
func deepAnchorConfigs(t *testing.T) []machine.Config {
	t.Helper()
	var cfgs []machine.Config
	for _, name := range []string{"C5", "C9", "C11", "C15"} {
		c, err := machine.ByName(name)
		if err == nil {
			c, err = c.Scaled(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		l1 := machine.CacheLevel{Bytes: c.CacheBytes}
		l2 := machine.CacheLevel{Bytes: l1.Bytes << 2, LatencyCycles: 10}
		l3 := machine.CacheLevel{Bytes: l2.Bytes << 2, LatencyCycles: 36}
		two, three := c, c
		two.Name, two.Levels = c.Name+"+L2", []machine.CacheLevel{l1, l2}
		three.Name, three.Levels = c.Name+"+L2+L3", []machine.CacheLevel{l1, l2, l3}
		cfgs = append(cfgs, two, three)
	}
	for _, name := range []string{"modern-2s-server", "cloud-vm-8"} {
		c, err := machine.ByName(name)
		if err == nil {
			c, err = c.Scaled(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// runDigest hashes the modelled outcome of a run. %v prints each float in
// its shortest round-trip form, so equal digests mean bit-equal results.
func runDigest(r RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%+v|%v|%+v", r.WallCycles, r.Stats, r.ClassShare, r.Phases)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeepRunsMatchGoldenAnchor runs the small FFT/LU/Radix/EDGE kernels on
// every anchored deep platform and compares each run's digest with the
// checked-in anchor.
func TestDeepRunsMatchGoldenAnchor(t *testing.T) {
	if testing.Short() {
		t.Skip("40 deep-hierarchy simulations")
	}
	type sum struct{ name, hash string }
	var got []sum
	for _, w := range workloads.Suite(workloads.ScaleSmall) {
		traces := map[int]*trace.Trace{} // by processor count
		for _, cfg := range deepAnchorConfigs(t) {
			tr, ok := traces[cfg.TotalProcs()]
			if !ok {
				var err error
				if tr, err = workloads.GenerateTrace(w, cfg.TotalProcs()); err != nil {
					t.Fatal(err)
				}
				traces[cfg.TotalProcs()] = tr
			}
			name := cfg.Name + "/" + w.Name()
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tr, sys)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sys.VerifyCoherence(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got = append(got, sum{name, runDigest(res)})
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		var out strings.Builder
		for _, g := range got {
			fmt.Fprintf(&out, "%s  %s\n", g.hash, g.name)
		}
		if err := os.MkdirAll(filepath.Dir(deepAnchorFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deepAnchorFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), deepAnchorFile)
		return
	}

	raw, err := os.ReadFile(deepAnchorFile)
	if err != nil {
		t.Fatalf("missing golden anchor (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[1]] = fields[0]
	}
	for _, g := range got {
		wantHash, ok := want[g.name]
		if !ok {
			t.Errorf("run %s has no golden digest; regenerate with UPDATE_GOLDEN=1 if the addition is intentional", g.name)
			continue
		}
		if g.hash != wantHash {
			t.Errorf("run %s: results drifted from the anchor\n  got  %s\n  want %s", g.name, g.hash, wantHash)
		}
		delete(want, g.name)
	}
	for name := range want {
		t.Errorf("golden run %s no longer simulated", name)
	}
}

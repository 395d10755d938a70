package backend

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
)

// deepLevels returns a 2- or 3-level hierarchy whose L1 matches the test
// helpers' 4KB cache, so a config can be upgraded in place.
func deepLevels(n int) []machine.CacheLevel {
	lv := []machine.CacheLevel{
		{Bytes: 4 << 10, LatencyCycles: 1},
		{Bytes: 16 << 10, LatencyCycles: 6},
		{Bytes: 64 << 10, LatencyCycles: 18},
	}
	return lv[:n]
}

// withLevels upgrades one of the flat test configs to an n-level hierarchy.
func withLevels(cfg machine.Config, n int) machine.Config {
	cfg.Levels = deepLevels(n)
	cfg.CacheBytes = cfg.Levels[0].Bytes
	cfg.Name = cfg.Name + "-deep"
	return cfg
}

// deepTestConfigs are the multi-level platforms the deep tests cover: every
// platform kind in 2- and 3-level forms, plus an SMP and a cluster of SMPs
// with eight processors per node, where most deep copies a write must
// sweep sit in siblings.
func deepTestConfigs() []machine.Config {
	return []machine.Config{
		withLevels(smpConfig(4), 2),
		withLevels(smpConfig(4), 3),
		withLevels(smpConfig(8), 3),
		withLevels(wsConfig(4, machine.NetBus100), 3),
		withLevels(csmpConfig(2, 2, machine.NetSwitch155), 2),
		withLevels(csmpConfig(2, 2, machine.NetSwitch155), 3),
		withLevels(csmpConfig(8, 2, machine.NetBus100), 2),
	}
}

// TestDeepRunMatchesReference is the multi-level analogue of
// TestRunMatchesReference: with 2- and 3-level private hierarchies on every
// platform kind, under MSI and MESI, the batched engine and the parallel
// engine at several worker counts must match the unbatched reference
// executor bit for bit, and the coherence invariants (including the deep
// levels' clean-and-unowned rule and the presence filter's soundness) must
// hold at the end of every run.
func TestDeepRunMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		traces := map[int]*trace.Trace{} // by processor count
		for _, cfg := range deepTestConfigs() {
			tr, ok := traces[cfg.TotalProcs()]
			if !ok {
				tr = randomTrace(rng, cfg.TotalProcs(), 5, 300)
				traces[cfg.TotalProcs()] = tr
			}
			for _, proto := range []Protocol{ProtocolMSI, ProtocolMESI} {
				opts := SystemOptions{Protocol: proto}
				name := fmt.Sprintf("seed %d %s/%d×%d %v", seed, cfg.Name, cfg.N, cfg.Procs, proto)
				sysA, err := NewSystemOpts(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRun(tr, sysA)
				if err != nil {
					t.Fatalf("%s: reference run: %v", name, err)
				}
				if err := sysA.VerifyCoherence(); err != nil {
					t.Fatalf("%s: reference run: %v", name, err)
				}
				sysB, err := NewSystemOpts(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(tr, sysB)
				if err != nil {
					t.Fatalf("%s: batched Run: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: batched engine diverged from reference:\n got %+v\nwant %+v", name, got, want)
				}
				if err := sysB.VerifyCoherence(); err != nil {
					t.Errorf("%s: batched Run: %v", name, err)
				}
				for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
					sysC, err := NewSystemOpts(cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					par, err := RunParallel(tr, sysC, workers)
					if err != nil {
						t.Fatalf("%s: RunParallel(workers=%d): %v", name, workers, err)
					}
					if !reflect.DeepEqual(par, want) {
						t.Errorf("%s: parallel engine (workers=%d) diverged from reference", name, workers)
					}
					if err := sysC.VerifyCoherence(); err != nil {
						t.Errorf("%s: RunParallel(workers=%d): %v", name, workers, err)
					}
				}
			}
		}
	}
}

// TestDeepLevelsServeTraffic checks that the deep levels actually catch
// L1 victims: a working set that overflows the 4KB L1 but fits in the 16KB
// L2 must produce L2 hits, and a one-level run of the same trace must leave
// every deep-only class at zero.
func TestDeepLevelsServeTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 4, 4, 500)

	deepRes, err := Simulate(tr, withLevels(smpConfig(4), 3))
	if err != nil {
		t.Fatal(err)
	}
	if deepRes.Stats.ClassCounts[ClassL2Cache] == 0 {
		t.Error("3-level run recorded no L2 hits")
	}

	flatRes, err := Simulate(tr, smpConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for c := ClassCacheHit; c <= ClassDisk; c++ {
		if c.DeepOnly() && flatRes.Stats.ClassCounts[c] != 0 {
			t.Errorf("1-level run counted %d %v accesses", flatRes.Stats.ClassCounts[c], c)
		}
	}
}

// TestDeepOneLevelUnchanged pins the tentpole's compatibility contract at
// the simulator layer: spelling a config as a 1-element Levels list must
// give bit-identical results to the legacy CacheBytes spelling.
func TestDeepOneLevelUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 4, 4, 300)
	for _, base := range []machine.Config{
		smpConfig(4),
		wsConfig(4, machine.NetBus100),
		csmpConfig(2, 2, machine.NetSwitch155),
	} {
		want, err := Simulate(tr, base)
		if err != nil {
			t.Fatal(err)
		}
		spelled := base
		spelled.Levels = []machine.CacheLevel{{Bytes: base.CacheBytes}}
		got, err := Simulate(tr, spelled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 1-element Levels diverged from CacheBytes:\n got %+v\nwant %+v",
				base.Name, got, want)
		}
	}
}

// TestDeepGeometryRejected pins the error for deep capacities the cache
// package's power-of-two geometry cannot express.
func TestDeepGeometryRejected(t *testing.T) {
	cfg := smpConfig(2)
	cfg.Levels = []machine.CacheLevel{
		{Bytes: 4 << 10, LatencyCycles: 1},
		{Bytes: 3<<10 + 32, LatencyCycles: 6}, // not a power-of-two line multiple
	}
	cfg.CacheBytes = cfg.Levels[0].Bytes
	if _, err := NewSystem(cfg); err == nil {
		t.Error("non-power-of-two deep level accepted")
	}
}

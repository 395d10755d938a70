package backend

import (
	"math/rand"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// TestCoherenceInvariantRealWorkloads runs every backend variant, in one-
// and multi-level forms, on real kernels and checks the single-writer
// invariant (and, on deep configs, the deep-level and presence-filter
// invariants) at the end of the run.
func TestCoherenceInvariantRealWorkloads(t *testing.T) {
	cfgs := []machine.Config{
		smpConfig(2), smpConfig(4),
		wsConfig(2, machine.NetBus10), wsConfig(4, machine.NetSwitch155),
		csmpConfig(2, 2, machine.NetBus100), csmpConfig(2, 2, machine.NetSwitch155),
	}
	cfgs = append(cfgs, deepTestConfigs()...)
	kernels := []workloads.Workload{
		workloads.NewFFT(256),
		workloads.NewLU(24, 4),
		workloads.NewRadix(3000, 16),
		workloads.NewEdge(24, 24, 2),
	}
	for _, proto := range []Protocol{ProtocolMSI, ProtocolMESI} {
		for _, cfg := range cfgs {
			for _, w := range kernels {
				tr, err := workloads.GenerateTrace(w, cfg.TotalProcs())
				if err != nil {
					t.Fatal(err)
				}
				sys, err := NewSystemOpts(cfg, SystemOptions{Protocol: proto})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(tr, sys); err != nil {
					t.Fatalf("%v/%s/%d×%d/%s: %v", proto, cfg.Name, cfg.N, cfg.Procs, w.Name(), err)
				}
				if err := sys.VerifyCoherence(); err != nil {
					t.Errorf("%v/%s/%d×%d/%s: %v", proto, cfg.Name, cfg.N, cfg.Procs, w.Name(), err)
				}
			}
		}
	}
}

// TestCoherenceInvariantRandomTraces stresses the protocols with random
// read/write interleavings over a small shared region (maximal false
// sharing and ping-pong), checking the invariant at several points.
func TestCoherenceInvariantRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 10; trial++ {
		nproc := 2 + rng.Intn(3)*2 // 2, 4, or 6
		cfg := csmpConfig(2, (nproc+1)/2, machine.NetBus100)
		cfg.Procs = 2
		cfg.N = nproc / 2
		if cfg.N < 1 {
			cfg.N = 1
			cfg.Kind = machine.SMP
			cfg.Net = machine.NetNone
		}
		total := cfg.TotalProcs()
		tr := trace.New(total)
		for i := 0; i < 400; i++ {
			for cpu := 0; cpu < total; cpu++ {
				addr := uint64(rng.Intn(64)) * 8 // 8 cache lines, 2 blocks
				if rng.Intn(2) == 0 {
					tr.Streams[cpu].AddRead(addr)
				} else {
					tr.Streams[cpu].AddWrite(addr)
				}
				if rng.Intn(16) == 0 {
					tr.Streams[cpu].AddCompute(uint64(rng.Intn(100)))
				}
			}
			if i%100 == 99 {
				for cpu := 0; cpu < total; cpu++ {
					tr.Streams[cpu].AddBarrier()
				}
			}
		}
		for _, proto := range []Protocol{ProtocolMSI, ProtocolMESI} {
			sys, err := NewSystemOpts(cfg, SystemOptions{Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(tr, sys); err != nil {
				t.Fatalf("trial %d %v: %v", trial, proto, err)
			}
			if err := sys.VerifyCoherence(); err != nil {
				t.Errorf("trial %d %v (n=%d N=%d): %v", trial, proto, cfg.Procs, cfg.N, err)
			}
		}
	}
}

// TestDirtyEvictionKeepsSiblingOwnership reproduces the stale-sibling
// scenario: a node dirties two lines of a block, evicts one (write-back),
// and a remote reader of the *other* line must still see the three-hop
// dirty path, not a stale clean fetch.
func TestDirtyEvictionKeepsSiblingOwnership(t *testing.T) {
	cfg := wsConfig(2, machine.NetBus100)
	cfg.CacheBytes = 256 // 2 sets x 2 ways of 64B: tiny, easy to evict
	tr := trace.New(2)
	s0 := tr.Streams[0]
	// Dirty two lines of block 0 (lines 0 and 64 map to different sets).
	s0.AddWrite(0)
	s0.AddWrite(64)
	// Evict line 0 by filling its set: with 2 sets, line addresses 0, 128,
	// 256 share set 0.
	s0.AddWrite(128 * 64) // far-away block, set 0
	s0.AddWrite(256 * 64) // far-away block, set 0 — evicts line 0
	s0.AddBarrier()
	s1 := tr.Streams[1]
	s1.AddCompute(1 << 20)
	s1.AddBarrier()
	// Remote read of the still-dirty sibling line 64.
	s1.AddRead(64)
	s0.AddCompute(1)

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteDirty] != 1 {
		t.Errorf("sibling read should take the dirty three-hop path: %+v", res.Stats.ClassCounts)
	}
	if err := sys.VerifyCoherence(); err != nil {
		t.Error(err)
	}
}

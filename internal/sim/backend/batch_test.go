package backend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// randomTrace builds a balanced bulk-synchronous trace with a randomized
// mix of reads, writes, compute gaps, and barriers. Addresses are drawn
// from a working set small enough to provoke sharing, evictions, and
// coherence traffic on every configuration.
func randomTrace(rng *rand.Rand, nproc, phases, eventsPerPhase int) *trace.Trace {
	tr := trace.New(nproc)
	for p := 0; p < phases; p++ {
		for cpu := 0; cpu < nproc; cpu++ {
			s := tr.Streams[cpu]
			n := 1 + rng.Intn(eventsPerPhase)
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0:
					s.AddCompute(uint64(1 + rng.Intn(50)))
				case 1:
					s.AddWrite(uint64(rng.Intn(1 << 16)))
				default:
					s.AddRead(uint64(rng.Intn(1 << 16)))
				}
			}
			s.AddBarrier()
		}
	}
	// Unbalanced tails after the last barrier.
	for cpu := 0; cpu < nproc; cpu++ {
		s := tr.Streams[cpu]
		for i := rng.Intn(eventsPerPhase); i > 0; i-- {
			s.AddRead(uint64(rng.Intn(1 << 16)))
		}
	}
	return tr
}

// fractionalConfigs are platforms with fractional latencies, where the
// engine runs on float clocks: an SMP clocked at 250 MHz (memory-side
// latencies ×1.25) and a 2-level hierarchy with a 10.5-cycle L2.
func fractionalConfigs(nproc int) []machine.Config {
	fast := smpConfig(nproc)
	fast.Name = "test-smp-250mhz"
	fast.ClockMHz = 250
	l2 := withLevels(smpConfig(nproc), 2)
	l2.Levels[1].LatencyCycles = 10.5
	return []machine.Config{fast, l2}
}

// TestRunMatchesReference cross-checks the batched engine against the
// retained pop-one-event reference executor on seeded random traces: the
// RunResults — wall time, per-phase profiles, every counter — must be
// bit-identical on all three platform kinds, on integer and float clocks,
// and past 32 processors.
func TestRunMatchesReference(t *testing.T) {
	cfgs := append([]machine.Config{
		smpConfig(4),
		wsConfig(4, machine.NetBus100),
		csmpConfig(2, 2, machine.NetSwitch155),
	}, fractionalConfigs(4)...)
	check := func(name string, tr *trace.Trace, cfg machine.Config) {
		t.Helper()
		sysA, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tr, sysA)
		if err != nil {
			t.Fatalf("%s: batched Run: %v", name, err)
		}
		sysB, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRun(tr, sysB)
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batched engine diverged from reference:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 4, 6, 400)
		for _, cfg := range cfgs {
			check(fmt.Sprintf("seed %d %s", seed, cfg.Name), tr, cfg)
		}
	}
	for _, cfg := range fractionalConfigs(4) {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.exactLatencies() {
			t.Errorf("%s: latencies are integral; the float clock goes untested", cfg.Name)
		}
	}

	// One scan serves every processor count: 36 processors, past the 32 of
	// the largest catalog platform.
	const n = 36
	rng := rand.New(rand.NewSource(7))
	check(fmt.Sprintf("%d processors", n), randomTrace(rng, n, 3, 60), smpConfig(n))
}

// TestRunMatchesReferenceWorkload cross-checks on a real kernel trace, where
// long compute runs exercise the batching path much harder than the random
// mix does.
func TestRunMatchesReferenceWorkload(t *testing.T) {
	tr, err := workloads.GenerateTrace(workloads.NewRadix(1<<12, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []machine.Config{smpConfig(4), wsConfig(4, machine.NetSwitch155)} {
		sysA, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tr, sysA)
		if err != nil {
			t.Fatal(err)
		}
		sysB, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRun(tr, sysB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batched engine diverged from reference on Radix trace", cfg.Name)
		}
	}
}

package backend

import (
	"math/rand"
	"reflect"
	"testing"

	"memhier/internal/machine"
)

// FuzzRunEquivalence hammers the engine-equivalence contract with randomized
// balanced-barrier traces: the engine and the unbatched reference executor
// must produce bit-identical RunResults on every platform kind, on integer
// and float clocks, whether each platform runs the materialized trace or
// all of them share one streamed replay of it (StreamRunAll). The generator parameters — not raw event bytes — are
// the fuzz input, so every corpus entry is a valid trace and the fuzzer
// explores the scheduling space (processor counts, phase structure, mix
// density) rather than the decoder.
func FuzzRunEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint16(120))
	f.Add(int64(7), uint8(2), uint8(1), uint16(40))
	f.Add(int64(42), uint8(6), uint8(4), uint16(90))
	f.Add(int64(-3), uint8(1), uint8(2), uint16(200))
	f.Add(int64(99), uint8(5), uint8(5), uint16(10))
	f.Fuzz(func(t *testing.T, seed int64, nprocRaw, phasesRaw uint8, eventsRaw uint16) {
		nproc := 1 + int(nprocRaw)%6
		phases := 1 + int(phasesRaw)%5
		events := 1 + int(eventsRaw)%150
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, nproc, phases, events)

		cfgs := []machine.Config{smpConfig(nproc)}
		if nproc%2 == 0 {
			cfgs = append(cfgs,
				wsConfig(nproc, machine.NetBus100),
				csmpConfig(nproc/2, 2, machine.NetSwitch155))
		}
		// Seed-derived multi-level variant: the same equivalence contract
		// must hold with a private L2/L3 stack in front of the coherence
		// machinery. Deriving the depth from the seed keeps the fuzz
		// signature — and the checked-in corpus — unchanged.
		depth := 2 + int(uint64(seed)%2)
		deep := withLevels(cfgs[uint64(seed)%uint64(len(cfgs))], depth)
		cfgs = append(cfgs, deep)
		cfgs = append(cfgs, fractionalConfigs(nproc)...)
		wants := make([]RunResult, len(cfgs))
		for i, cfg := range cfgs {
			sysA, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceRun(tr, sysA)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = want
			sysB, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(tr, sysB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Run diverged from reference (seed=%d nproc=%d phases=%d events=%d)",
					cfg.Name, seed, nproc, phases, events)
			}
			if err := sysB.VerifyCoherence(); err != nil {
				t.Errorf("%s: %v (seed=%d nproc=%d phases=%d events=%d)",
					cfg.Name, err, seed, nproc, phases, events)
			}
		}

		// Every platform again from one shared generator pass: integer and
		// float clocks run the same compiled phases side by side.
		systems := make([]*System, len(cfgs))
		for i, cfg := range cfgs {
			var err error
			if systems[i], err = NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
		}
		got, err := StreamRunAll(systems, nproc, replay(tr))
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if !reflect.DeepEqual(got[i], wants[i]) {
				t.Errorf("%s: StreamRunAll diverged from reference (seed=%d nproc=%d phases=%d events=%d)",
					cfg.Name, seed, nproc, phases, events)
			}
		}
	})
}

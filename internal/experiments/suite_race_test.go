package experiments

import (
	"bytes"
	"sync"
	"testing"

	"memhier/internal/machine"
)

// TestSuiteConcurrentAccess hammers the Suite's caches from many
// goroutines. Run under -race it is the regression test for the plain-map
// caches the Suite used to have; the assertions additionally pin the
// single-flight contract: every goroutine sees the same cached value and
// each key is computed exactly once no matter how many demand it at once.
func TestSuiteConcurrentAccess(t *testing.T) {
	s := NewSuite(Options{})
	wls := s.Workloads()
	// Two sets: C7 alone (2 processors) and C12 alone (4 processors on 2
	// machines, so its pass also measures sharing).
	sets := [][]machine.Config{machine.WSCatalog()[:1], machine.SMPClusterCatalog()[:1]}
	const goroutines = 16

	sides := make([][]*simulatedSide, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sets {
				side, err := s.simulated(sets[(g+i)%len(sets)])
				if err != nil {
					t.Errorf("simulated: %v", err)
					return
				}
				sides[g] = append(sides[g], side)
			}
			for _, w := range wls {
				if _, err := s.characterize(w); err != nil {
					t.Errorf("characterize(%s): %v", w.Name(), err)
					return
				}
				if _, err := s.characterizeItem(w); err != nil {
					t.Errorf("characterizeItem(%s): %v", w.Name(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Single-flight: each set simulated once, one streamed pass per
	// (workload, processor count), despite 16 goroutines demanding them
	// concurrently.
	if want, got := int64(len(sets)), s.sims.computes.Load(); got != want {
		t.Errorf("simulated sides = %d, want exactly %d", got, want)
	}
	if want, got := int64(len(wls)*len(sets)), s.passes.Load(); got != want {
		t.Errorf("streamed passes = %d, want exactly %d", got, want)
	}
	// One computation serves both granularities.
	if want, got := int64(len(wls)), s.chars.computes.Load(); got != want {
		t.Errorf("characterizations = %d, want exactly %d", got, want)
	}
	// Every goroutine got the same cached side for each set.
	for g := range sides {
		if len(sides[g]) != len(sets) {
			t.Fatalf("goroutine %d got %d simulated sides, want %d", g, len(sides[g]), len(sets))
		}
	}
	for g := range sides {
		for i, side := range sides[g] {
			if side != sides[0][(g+i)%len(sets)] {
				t.Errorf("goroutine %d: set %d not cached across calls", g, (g+i)%len(sets))
			}
		}
	}
}

// TestSuiteConcurrentValidate runs two validation figures concurrently
// against one Suite — the exact shape that raced on the old plain-map
// caches the moment two figures shared a Suite.
func TestSuiteConcurrentValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation matrices")
	}
	s := NewSuite(Options{})
	var wg sync.WaitGroup
	figs := []func() (Validation, error){s.Figure2, s.Figure3}
	vals := make([]Validation, len(figs))
	errs := make([]error, len(figs))
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, fig func() (Validation, error)) {
			defer wg.Done()
			vals[i], errs[i] = fig()
		}(i, fig)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("figure %d: %v", i+2, err)
		}
		if len(vals[i].Rows) == 0 {
			t.Errorf("figure %d: no rows", i+2)
		}
	}
}

// TestReproductionStreamsOncePerPair: rendering every artifact concurrently
// simulates Figures 2–4 as one set — 12 streamed passes, one per (kernel,
// processor count) of C1–C15 — and characterizes each kernel once, as many
// kernel runs as materializing the 12 traces took.
func TestReproductionStreamsOncePerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction")
	}
	s := NewSuite(Options{})
	var buf bytes.Buffer
	if err := RenderArtifacts(&buf, s.Artifacts(), 8, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.sims.computes.Load(); got != 1 {
		t.Errorf("simulated sides = %d, want 1 (C1–C15)", got)
	}
	if got := s.passes.Load(); got != 12 {
		t.Errorf("streamed passes = %d, want 12 (4 kernels × 2, 4, 8 processors)", got)
	}
	if got := s.chars.computes.Load(); got != 4 {
		t.Errorf("characterization runs = %d, want 4", got)
	}
}

// BenchmarkValidationMatrix is the simulated side of the full reproduction:
// a fresh Suite streams all 12 passes (4 kernels × 2, 4, 8 processors) of
// C1–C15 into their simulators and sharing measurements. With -benchmem it
// shows what the in-flight buffers of a streamed pass cost.
func BenchmarkValidationMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSuite(Options{})
		if _, err := s.simulated(machine.Catalog()); err != nil {
			b.Fatal(err)
		}
		if got := s.passes.Load(); got != 12 {
			b.Fatalf("streamed passes = %d, want 12", got)
		}
	}
}

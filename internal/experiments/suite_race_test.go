package experiments

import (
	"sync"
	"testing"
)

// TestSuiteConcurrentAccess hammers the Suite's caches from many
// goroutines. Run under -race it is the regression test for the plain-map
// caches the Suite used to have; the assertions additionally pin the
// single-flight contract: every goroutine sees the same cached value and
// each key is computed exactly once no matter how many demand it at once.
func TestSuiteConcurrentAccess(t *testing.T) {
	s := NewSuite(Options{})
	wls := s.Workloads()
	nprocs := []int{1, 2, 4}
	const goroutines = 16

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, w := range wls {
				for _, np := range nprocs {
					tr, err := s.Trace(w, np)
					if err != nil {
						t.Errorf("Trace(%s, %d): %v", w.Name(), np, err)
						return
					}
					if tr.NumCPU() != np {
						t.Errorf("Trace(%s, %d) has %d streams", w.Name(), np, tr.NumCPU())
						return
					}
					// Exercise the sharing cache too (2 nodes).
					if np > 1 {
						s.sharing(w.Name(), tr, np/2)
					}
				}
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

	// Single-flight: each distinct key computed exactly once despite 16
	// goroutines demanding it concurrently.
	if want, got := int64(len(wls)*len(nprocs)), s.traces.computes.Load(); got != want {
		t.Errorf("trace generations = %d, want exactly %d", got, want)
	}
	// One computation serves both granularities.
	if want, got := int64(len(wls)), s.chars.computes.Load(); got != want {
		t.Errorf("characterizations = %d, want exactly %d", got, want)
	}
	if want, got := int64(len(wls)*2), s.shares.computes.Load(); got != want {
		t.Errorf("sharing measurements = %d, want exactly %d", got, want)
	}

	// Cached pointers are stable: a later demand returns the same trace.
	for _, w := range wls {
		t1, err := s.Trace(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := s.Trace(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Errorf("%s: trace not cached across calls", w.Name())
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

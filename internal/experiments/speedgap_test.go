package experiments

import (
	"strings"
	"testing"

	"memhier/internal/core"
	"memhier/internal/sim/backend"
	"memhier/internal/workloads"
)

func TestCaseSpeedGap(t *testing.T) {
	fft, _ := core.PaperWorkload("FFT")
	rows, tab, err := CaseSpeedGap(fft, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("too few clock points: %d", len(rows))
	}
	for i, r := range rows {
		if r.Seconds <= 0 || r.HierarchyShare < 0 || r.HierarchyShare > 1 {
			t.Fatalf("degenerate row %+v", r)
		}
		if i == 0 {
			continue
		}
		// Faster clocks never slow wall time, but speedup is sublinear …
		if r.Seconds > rows[i-1].Seconds+1e-15 {
			t.Errorf("wall time rose with clock: %+v after %+v", r, rows[i-1])
		}
		clockRatio := r.ClockMHz / rows[0].ClockMHz
		if r.Speedup > clockRatio*0.99 {
			t.Errorf("speedup %v nearly linear at %g MHz — the wall is missing", r.Speedup, r.ClockMHz)
		}
		// … and the hierarchy's share of execution time grows.
		if r.HierarchyShare < rows[i-1].HierarchyShare-1e-9 {
			t.Errorf("hierarchy share fell with clock: %+v after %+v", r, rows[i-1])
		}
	}
	// The memory wall: at the fastest clock the hierarchy dominates and
	// the total speedup from a 32x clock is small.
	last := rows[len(rows)-1]
	if last.HierarchyShare < 0.9 {
		t.Errorf("hierarchy share at %g MHz is %v, want > 0.9", last.ClockMHz, last.HierarchyShare)
	}
	if last.Speedup > 3 {
		t.Errorf("speedup %v at 32x clock — the wall should cap it far below the clock ratio", last.Speedup)
	}
	if !strings.Contains(tab.String(), "Hierarchy share") {
		t.Error("table missing the hierarchy-share column")
	}
}

// TestClockScalingConsistency: model and simulator must agree that a faster
// clock shortens wall seconds sublinearly.
func TestClockScalingConsistency(t *testing.T) {
	s := NewSuite(Options{})
	w := s.Workloads()[0] // FFT
	tr, err := workloads.GenerateTrace(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	secondsAt := func(clock float64) float64 {
		cfg, err := s.scaledConfig(machineConfigAt(clock))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := backend.Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Seconds
	}
	s200 := secondsAt(200)
	s800 := secondsAt(800)
	if s800 >= s200 {
		t.Errorf("simulated wall seconds did not drop with clock: %v vs %v", s800, s200)
	}
	if s200/s800 > 3.9 {
		t.Errorf("simulated speedup %v at 4x clock — memory wall missing in the simulator", s200/s800)
	}
}

package interconnect

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAcquireIdle(t *testing.T) {
	r := NewResource("bus")
	if done := r.Acquire(100, 50); done != 150 {
		t.Errorf("idle acquire done = %v, want 150", done)
	}
	if r.freeAt != 150 || r.Requests() != 1 || r.BusyCycles() != 50 {
		t.Errorf("state: freeAt=%v req=%d busy=%v", r.freeAt, r.Requests(), r.BusyCycles())
	}
	if r.WaitCycles() != 0 || r.MeanWait() != 0 {
		t.Errorf("idle acquire should not wait: %v", r.WaitCycles())
	}
}

func TestAcquireQueues(t *testing.T) {
	r := NewResource("bus")
	r.Acquire(0, 100)
	// Arrives at 40 while busy until 100: starts at 100.
	if done := r.Acquire(40, 10); done != 110 {
		t.Errorf("queued acquire done = %v, want 110", done)
	}
	if r.WaitCycles() != 60 {
		t.Errorf("wait = %v, want 60", r.WaitCycles())
	}
	if r.MeanWait() != 30 {
		t.Errorf("mean wait = %v, want 30", r.MeanWait())
	}
	// Arrives after it drains: no wait.
	if done := r.Acquire(500, 10); done != 510 {
		t.Errorf("late acquire done = %v, want 510", done)
	}
}

func TestUtilization(t *testing.T) {
	r := NewResource("bus")
	r.Acquire(0, 250)
	if u := r.Utilization(1000); math.Abs(u-0.25) > 1e-12 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Errorf("utilization over zero elapsed = %v", u)
	}
	if u := r.Utilization(100); u != 1 {
		t.Errorf("utilization clamp = %v, want 1", u)
	}
}

// TestSerialization checks the core property: total completion of
// back-to-back requests equals the sum of durations.
func TestSerialization(t *testing.T) {
	f := func(durs []uint8) bool {
		r := NewResource("x")
		var sum float64
		var last float64
		for _, d := range durs {
			dur := float64(d%50) + 1
			sum += dur
			last = r.Acquire(0, dur)
		}
		return len(durs) == 0 || math.Abs(last-sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMonotoneCompletion: completions never go backwards when requests
// arrive in time order.
func TestMonotoneCompletion(t *testing.T) {
	f := func(evs []uint16) bool {
		r := NewResource("x")
		now, prevDone := 0.0, 0.0
		for _, e := range evs {
			now += float64(e % 97)
			done := r.Acquire(now, float64(e%13)+1)
			if done < prevDone || done < now {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

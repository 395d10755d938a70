package stackdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"memhier/internal/trace"
)

// naiveDistance recomputes stack distances with an explicit LRU stack, the
// O(n^2) reference implementation the Fenwick version must match.
type naiveLRU struct {
	stack []uint64
}

func (n *naiveLRU) touch(d uint64) int {
	for i, v := range n.stack {
		if v == d {
			n.stack = append(n.stack[:i], n.stack[i+1:]...)
			n.stack = append([]uint64{d}, n.stack...)
			return i
		}
	}
	n.stack = append([]uint64{d}, n.stack...)
	return -1
}

func TestTouchSimpleSequences(t *testing.T) {
	tests := []struct {
		name string
		refs []uint64
		want []int
	}{
		{"repeat", []uint64{1, 1, 1}, []int{-1, 0, 0}},
		{"two items", []uint64{1, 2, 1, 2}, []int{-1, -1, 1, 1}},
		{"abcba", []uint64{1, 2, 3, 2, 1}, []int{-1, -1, -1, 1, 2}},
		{"sequential cold", []uint64{1, 2, 3, 4}, []int{-1, -1, -1, -1}},
		{"loop", []uint64{1, 2, 3, 1, 2, 3}, []int{-1, -1, -1, 2, 2, 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAnalyzer(8)
			for i, r := range tc.refs {
				if got := a.Touch(r); got != tc.want[i] {
					t.Errorf("ref %d (%d): distance %d, want %d", i, r, got, tc.want[i])
				}
			}
		})
	}
}

func TestTouchMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := NewAnalyzer(64)
		n := &naiveLRU{}
		universe := uint64(2 + rng.Intn(50))
		for i := 0; i < 500; i++ {
			d := uint64(rng.Intn(int(universe)))
			got, want := a.Touch(d), n.touch(d)
			if got != want {
				t.Fatalf("trial %d ref %d datum %d: fenwick=%d naive=%d", trial, i, d, got, want)
			}
		}
	}
}

func TestAnalyzerCounters(t *testing.T) {
	a := NewAnalyzer(0)
	for _, r := range []uint64{5, 6, 5, 7, 6, 5} {
		a.Touch(r)
	}
	if a.References() != 6 {
		t.Errorf("References = %d, want 6", a.References())
	}
	if a.Cold() != 3 {
		t.Errorf("Cold = %d, want 3", a.Cold())
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
}

func TestDistanceBoundedByDistinct(t *testing.T) {
	// Property: a stack distance is always < number of distinct data seen.
	f := func(seq []uint8) bool {
		a := NewAnalyzer(len(seq))
		for _, r := range seq {
			d := a.Touch(uint64(r))
			if d >= a.Distinct() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionTotals(t *testing.T) {
	f := func(seq []uint8) bool {
		a := NewAnalyzer(len(seq))
		for _, r := range seq {
			a.Touch(uint64(r))
		}
		d := a.Distribution()
		return d.Total+d.Cold == a.References() && int(d.Cold) == a.Distinct()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFMonotoneAndLimits(t *testing.T) {
	a := NewAnalyzer(64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a.Touch(uint64(rng.Intn(40)))
	}
	d := a.Distribution()
	prev := 0.0
	for x := 0; x <= 45; x++ {
		c := d.CDF(x)
		if c < prev-1e-15 {
			t.Fatalf("CDF not monotone at %d: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%d) = %v out of [0,1]", x, c)
		}
		prev = c
	}
	if got := d.CDF(1 << 30); got != 1 {
		t.Errorf("CDF(inf) = %v, want 1", got)
	}
	if got := d.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var d Distribution
	if got := d.CDF(100); got != 0 {
		t.Errorf("empty CDF = %v, want 0", got)
	}
}

func TestPointsMatchCDF(t *testing.T) {
	a := NewAnalyzer(64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a.Touch(uint64(rng.Intn(30)))
	}
	d := a.Distribution()
	xs, ps := d.Points()
	if len(xs) != len(ps) || len(xs) != len(d.Distances) {
		t.Fatalf("Points length mismatch")
	}
	for i := range xs {
		if got := d.CDF(int(xs[i])); math.Abs(got-ps[i]) > 1e-12 {
			t.Errorf("Points[%d]: CDF(%v)=%v, point says %v", i, xs[i], got, ps[i])
		}
	}
}

// TestHitRatioMatchesLRUSimulation is the LRU inclusion cross-check: the
// analytic hit ratio from stack distances must equal an actual fully
// associative LRU cache simulation at every capacity.
func TestHitRatioMatchesLRUSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	refs := make([]uint64, 3000)
	for i := range refs {
		// Mix of sequential and random to get a nontrivial curve.
		if rng.Intn(3) == 0 {
			refs[i] = uint64(i % 64)
		} else {
			refs[i] = uint64(rng.Intn(128))
		}
	}
	a := NewAnalyzer(len(refs))
	for _, r := range refs {
		a.Touch(r)
	}
	d := a.Distribution()

	for _, capacity := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		hits := 0
		lru := &naiveLRU{}
		for _, r := range refs {
			if dist := lru.touch(r); dist >= 0 && dist < capacity {
				hits++
			}
			if len(lru.stack) > capacity {
				// Distance-based hit test above does not require eviction,
				// but keep the stack bounded for speed.
				lru.stack = lru.stack[:capacity+1]
			}
		}
		want := float64(hits) / float64(len(refs))
		if got := d.HitRatio(capacity); math.Abs(got-want) > 1e-12 {
			t.Errorf("capacity %d: HitRatio=%v, simulated=%v", capacity, got, want)
		}
	}
}

func TestHitRatioInclusion(t *testing.T) {
	// Larger caches never hit less (LRU inclusion property).
	a := NewAnalyzer(64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		a.Touch(uint64(rng.Intn(200)))
	}
	d := a.Distribution()
	prev := 0.0
	for c := 1; c <= 256; c *= 2 {
		h := d.HitRatio(c)
		if h < prev-1e-15 {
			t.Fatalf("hit ratio decreased at capacity %d: %v < %v", c, h, prev)
		}
		prev = h
	}
}

func TestHitRatioEdgeCases(t *testing.T) {
	var d Distribution
	if d.HitRatio(8) != 0 {
		t.Error("empty distribution should have 0 hit ratio")
	}
	a := NewAnalyzer(4)
	a.Touch(1)
	a.Touch(1)
	dd := a.Distribution()
	if got := dd.HitRatio(0); got != 0 {
		t.Errorf("capacity 0 hit ratio = %v, want 0", got)
	}
	if got := dd.HitRatio(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("capacity 1 hit ratio = %v, want 0.5", got)
	}
}

func TestMean(t *testing.T) {
	a := NewAnalyzer(8)
	for _, r := range []uint64{1, 2, 1, 2} { // distances 1, 1
		a.Touch(r)
	}
	d := a.Distribution()
	if got := d.Mean(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Mean = %v, want 1", got)
	}
	var empty Distribution
	if !math.IsNaN(empty.Mean()) {
		t.Error("empty Mean should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	a := NewAnalyzer(16)
	// distances: 0 x3, 2 x1
	for _, r := range []uint64{1, 1, 1, 1, 2, 3, 1} {
		a.Touch(r)
	}
	d := a.Distribution()
	q, err := d.Quantile(0.5)
	if err != nil || q != 0 {
		t.Errorf("Quantile(0.5) = %d, %v; want 0", q, err)
	}
	q, err = d.Quantile(1)
	if err != nil || q != 2 {
		t.Errorf("Quantile(1) = %d, %v; want 2", q, err)
	}
	if _, err := d.Quantile(0); err == nil {
		t.Error("Quantile(0) accepted")
	}
	if _, err := d.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) accepted")
	}
	var empty Distribution
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("Quantile on empty accepted")
	}
}

func TestMerge(t *testing.T) {
	a1 := NewAnalyzer(8)
	for _, r := range []uint64{1, 2, 1} { // distance 1, cold 2
		a1.Touch(r)
	}
	a2 := NewAnalyzer(8)
	for _, r := range []uint64{5, 5, 6, 5} { // distances 0, 1; cold 2
		a2.Touch(r)
	}
	m := Merge(a1.Distribution(), a2.Distribution())
	if m.Total != 3 || m.Cold != 4 {
		t.Fatalf("Merge totals = %d finite, %d cold; want 3, 4", m.Total, m.Cold)
	}
	if got := m.CDF(0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("merged CDF(0) = %v, want 1/3", got)
	}
	if got := m.CDF(1); got != 1 {
		t.Errorf("merged CDF(1) = %v, want 1", got)
	}
}

func TestMergePreservesMass(t *testing.T) {
	f := func(s1, s2 []uint8) bool {
		a1, a2 := NewAnalyzer(len(s1)), NewAnalyzer(len(s2))
		for _, r := range s1 {
			a1.Touch(uint64(r))
		}
		for _, r := range s2 {
			a2.Touch(uint64(r))
		}
		d1, d2 := a1.Distribution(), a2.Distribution()
		m := Merge(d1, d2)
		return m.Total == d1.Total+d2.Total && m.Cold == d1.Cold+d2.Cold
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	a := NewAnalyzer(1 << 12)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		a.Touch(uint64(rng.Intn(3000)))
	}
	d := a.Distribution()
	ds := d.Downsample(50)
	if len(ds.Distances) > 51 {
		t.Errorf("Downsample(50) kept %d points", len(ds.Distances))
	}
	if ds.Total != d.Total || ds.Cold != d.Cold {
		t.Errorf("Downsample lost mass: %d/%d vs %d/%d", ds.Total, ds.Cold, d.Total, d.Cold)
	}
	// Tail CDF must be preserved exactly.
	if got, want := ds.CDF(1<<30), d.CDF(1<<30); got != want {
		t.Errorf("tail CDF changed: %v vs %v", got, want)
	}
	// No-op cases.
	same := d.Downsample(0)
	if len(same.Distances) != len(d.Distances) {
		t.Error("Downsample(0) should be a no-op")
	}
	small := d.Downsample(1 << 20)
	if len(small.Distances) != len(d.Distances) {
		t.Error("Downsample larger than support should be a no-op")
	}
}

func BenchmarkTouch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewAnalyzer(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Touch(uint64(rng.Intn(1 << 16)))
	}
}

// TestTreeSizedByFootprint pins the compacted time axis: a stream far
// longer than the capacity hint over a small footprint keeps the tree at
// the hint, and References still counts every reference.
func TestTreeSizedByFootprint(t *testing.T) {
	a := NewAnalyzer(16)
	n := &naiveLRU{}
	const refs = 100000
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < refs; i++ {
		d := uint64(rng.Intn(4))
		if got, want := a.Touch(d), n.touch(d); got != want {
			t.Fatalf("ref %d: distance %d, want %d", i, got, want)
		}
	}
	if got := a.References(); got != refs {
		t.Errorf("References = %d, want %d", got, refs)
	}
	if got := len(a.tree) - 1; got != 16 {
		t.Errorf("tree capacity = %d after %d refs over 4 data, want 16", got, refs)
	}

	// A growing footprint grows the axis by doubling, to at most 8
	// positions per datum.
	for i := uint64(0); i < 1000; i++ {
		a.Touch(1000 + i)
	}
	if got, d := len(a.tree)-1, a.Distinct(); got < d || got > 8*d {
		t.Errorf("tree capacity = %d for %d distinct data", got, d)
	}
	a.Reset()
	if a.References() != 0 || a.Distinct() != 0 {
		t.Errorf("Reset left References=%d Distinct=%d", a.References(), a.Distinct())
	}
}

// FuzzAnalyzerMatchesNaive drives random datum streams into a minimally
// sized analyzer, so tree compactions and lastTable growth interleave, and
// checks every Touch distance and the TouchAll distribution against an
// explicit LRU stack.
func FuzzAnalyzerMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint64(1), []byte{0, 1, 2, 0, 1, 2, 2, 2})
	f.Add(uint8(255), uint64(64), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(uint8(40), uint64(1<<40), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100, 50})
	f.Fuzz(func(t *testing.T, universe uint8, stride uint64, data []byte) {
		// Keep every address representable: TouchAll reads trace events.
		stride %= trace.MaxAddr / 256
		a := NewAnalyzer(16)
		n := &naiveLRU{}
		hist := map[int]uint64{}
		var cold uint64
		events := make([]trace.Event, 0, len(data)+1)
		for i, b := range data {
			datum := uint64(b%(universe|1)) * stride
			got, want := a.Touch(datum), n.touch(datum)
			if got != want {
				t.Fatalf("ref %d datum %d: distance %d, naive %d", i, datum, got, want)
			}
			if want < 0 {
				cold++
			} else {
				hist[want]++
			}
			events = append(events, trace.Event{Kind: trace.Read, Addr: datum})
			if i%7 == 0 {
				events = append(events, trace.Event{Kind: trace.Compute, N: 3})
			}
		}
		if a.References() != uint64(len(data)) || a.Cold() != cold || a.Distinct() != len(n.stack) {
			t.Fatalf("counters refs=%d cold=%d distinct=%d, want %d/%d/%d",
				a.References(), a.Cold(), a.Distinct(), len(data), cold, len(n.stack))
		}

		b := NewAnalyzer(16)
		b.TouchAll(events, 1)
		dist := b.Distribution()
		if dist.Cold != cold || b.References() != uint64(len(data)) {
			t.Fatalf("TouchAll cold=%d refs=%d, want %d/%d", dist.Cold, b.References(), cold, len(data))
		}
		if len(dist.Distances) != len(hist) {
			t.Fatalf("TouchAll has %d distinct distances, want %d", len(dist.Distances), len(hist))
		}
		for i, d := range dist.Distances {
			if dist.Counts[i] != hist[d] {
				t.Fatalf("TouchAll distance %d: count %d, want %d", d, dist.Counts[i], hist[d])
			}
		}
	})
}

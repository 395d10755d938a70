package main

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func span(id, parent int64, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: "op", Name: name, Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two concurrent children cover [10,40] and [30,60] of a [0,100]
	// parent: their union is 50, not 60.
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 40),
		span(3, 1, "b", 30, 60),
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 30 || self[3] != 30 {
		t.Fatalf("self times %v, want root 50, a 30, b 30", self)
	}
}

func TestSelfTimeNestedParents(t *testing.T) {
	// root > mid > leaf: each level subtracts only its direct children,
	// and a child outside its parent's interval is clipped.
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "mid", 20, 80),
		span(3, 2, "leaf", 30, 50),
		span(4, 1, "late", 90, 120),
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 30, 2: 40, 3: 20, 4: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
}

func TestCrossGoroutineSpans(t *testing.T) {
	rec := NewRecorder()
	root := rec.Start("req-1", "root", 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := rec.Start("req-1", "child", root.ID())
			time.Sleep(2 * time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	b := buildBudget("w", "root", spans)
	if b.Ops != 1 || b.Self["child"] < 8*time.Millisecond {
		t.Fatalf("budget %+v: want 1 op and at least 8ms of child self time", b)
	}
	// The concurrent children overlap, so the root's remainder is its
	// duration minus their union, never negative.
	if b.Root < 0 || b.Root > b.Total {
		t.Fatalf("remainder %v outside [0, %v]", b.Root, b.Total)
	}
}

func TestBudgetExcludesChecksAndProbes(t *testing.T) {
	spans := []Span{
		span(1, 0, "pass", 0, 100),
		span(2, 1, "sim.run", 0, 60),
		span(3, 1, checkPrefix+"coherence", 60, 80),
		span(4, 0, "stackdist.analyze", 200, 300), // a probe: another tree
	}
	b := buildBudget("w", "pass", spans)
	if b.Total != 80 || b.Self["sim.run"] != 60 || b.Root != 20 {
		t.Fatalf("budget total %v, sim.run %v, remainder %v; want 80, 60, 20", b.Total, b.Self["sim.run"], b.Root)
	}
	if _, ok := b.Self["stackdist.analyze"]; ok {
		t.Fatal("a probe span was counted in the op's budget")
	}
	var sb strings.Builder
	b.write(&sb)
	if !strings.Contains(sb.String(), "(unexplained remainder)") {
		t.Fatalf("budget table lacks the remainder:\n%s", sb.String())
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	sp := rec.Start("op", "x", 0)
	sp.End()
	if sp.ID() != 0 || rec.Spans() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was not refused")
	}
	xs = append(xs, 1000)
	q, err := percentile(xs, 99)
	if err != nil || q.Value != 990 || q.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, %v; want 990 over 1000 samples", q, err)
	}
	m, err := median([]float64{3, 1, 2, 4})
	if err != nil || m.Value != 2.5 || m.N != 4 {
		t.Fatalf("median = %+v, %v; want 2.5 over 4", m, err)
	}
	if _, err := median(nil); err == nil {
		t.Fatal("median of no samples was not refused")
	}
}

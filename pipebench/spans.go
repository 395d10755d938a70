package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer. Times are offsets from the
// recorder's epoch. Op names the op or request the span belongs to;
// Parent is the ID of the span that caused it (0 for an op's root).
type Span struct {
	ID, Parent int64
	Op, Name   string
	Start, End time.Duration
}

// Recorder keeps spans in memory until the run ends. Spans may start and
// end on any goroutine. A nil *Recorder records nothing, so untraced code
// paths pay one nil check.
type Recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	r    *Recorder
	span Span
}

// Start opens a span. On a nil recorder it returns an Open whose End does
// nothing and whose ID is 0.
func (r *Recorder) Start(op, name string, parent int64) Open {
	if r == nil {
		return Open{}
	}
	return Open{r: r, span: Span{
		ID: r.next.Add(1), Parent: parent, Op: op, Name: name,
		Start: time.Since(r.epoch),
	}}
}

// ID returns the span's identifier, for use as its children's parent.
func (o Open) ID() int64 { return o.span.ID }

// End closes the span and records it.
func (o Open) End() {
	if o.r == nil {
		return
	}
	o.span.End = time.Since(o.r.epoch)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (concurrent calls) are
// counted once, and a child's time outside its parent's interval is not
// subtracted.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to p.
func covered(p Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// budget is a workload's time budget: the self time of every layer inside
// the traced ops, against the ops' end-to-end time.
type budget struct {
	Workload string
	Ops      int
	Total    time.Duration            // summed root-span time of the traced ops
	Self     map[string]time.Duration // layer name -> summed self time
	Root     time.Duration            // root spans' own self time: unexplained
	// Traced and Untraced are median end-to-end op times with tracing on
	// and off, measured in the same process.
	Traced, Untraced time.Duration
}

// checkPrefix names the spans of the benchmark's own output checks. The
// budget leaves them out of the op's time.
const checkPrefix = "check."

// buildBudget attributes the self time of every span under a root named
// rootName to its layer. Spans of other trees (probes) are ignored.
func buildBudget(workload, rootName string, spans []Span) budget {
	b := budget{Workload: workload, Self: map[string]time.Duration{}}
	self := selfTimes(spans)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// rootOf follows parents up to the tree's root.
	rootOf := func(s Span) Span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	for _, s := range spans {
		if rootOf(s).Name != rootName {
			continue
		}
		if strings.HasPrefix(s.Name, checkPrefix) {
			b.Total -= s.End - s.Start
			continue
		}
		if s.Parent == 0 {
			b.Ops++
			b.Total += s.End - s.Start
			b.Root += self[s.ID]
			continue
		}
		b.Self[s.Name] += self[s.ID]
	}
	return b
}

// share returns d as a fraction of the budget's end-to-end time.
func (b budget) share(d time.Duration) float64 {
	if b.Total <= 0 {
		return 0
	}
	return float64(d) / float64(b.Total)
}

// write prints the budget table: per-op self time and share per layer,
// the unexplained remainder, and the tracing overhead.
func (b budget) write(w io.Writer) {
	names := make([]string, 0, len(b.Self))
	for n := range b.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return b.Self[names[i]] > b.Self[names[j]] })
	per := func(d time.Duration) float64 {
		if b.Ops == 0 {
			return 0
		}
		return float64(d) / float64(b.Ops) / 1e6
	}
	fmt.Fprintf(w, "time budget: %s (%d traced ops, %.3f ms per op)\n", b.Workload, b.Ops, per(b.Total))
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer", "self ms/op", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f %7.1f%%\n", n, per(b.Self[n]), 100*b.share(b.Self[n]))
	}
	fmt.Fprintf(w, "  %-28s %12.3f %7.1f%%\n", "(unexplained remainder)", per(b.Root), 100*b.share(b.Root))
	fmt.Fprintf(w, "  tracing overhead: traced %.3f ms - untraced %.3f ms = %+.3f ms per op\n",
		ms(b.Traced), ms(b.Untraced), ms(b.Traced-b.Untraced))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

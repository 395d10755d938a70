// Package stackdist computes exact LRU stack distances of memory reference
// streams and summarizes them as histograms and cumulative distributions.
//
// The stack distance of a reference to datum A is the number of distinct
// data touched since the previous reference to A (the paper counts the
// unique items strictly between the two references; a re-reference to the
// most recently used item has distance 0, and the hit ratio of a fully
// associative LRU cache of capacity c equals P(distance < c)). First-time
// references have infinite distance and are reported separately.
//
// The analyzer uses the classic Fenwick-tree (binary indexed tree) marker
// algorithm: each distinct datum keeps the position of its last reference;
// a reference at position t to a datum last seen at position p has distance
// equal to the number of markers in (p, t). Only the relative order of the
// markers matters, so when the tree runs out of positions the live markers
// (one per distinct datum) are renumbered 1..D in their existing order and
// the tree is rebuilt. The time axis thus stays O(footprint) long: O(log
// footprint) per reference and O(footprint) memory, however long the
// stream.
//
//chc:deterministic
package stackdist

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"memhier/internal/trace"
)

// Analyzer ingests a reference stream and produces stack-distance
// statistics. The zero value is not usable; call NewAnalyzer.
//
// Storage is laid out for the ingest hot path: the distance histogram is a
// dense slice indexed by distance (a distance never exceeds the number of
// distinct data, so the slice is bounded by the footprint), the Fenwick
// tree is pre-sized from the capacity hint and afterwards kept at no less
// than four positions per distinct datum (so a compaction frees at least
// three quarters of the axis and costs O(1) amortized per reference), and
// the datum -> last-position table is a linear-probing hash table that
// resolves lookup and update with a single probe per reference (a Go map
// costs two hashed operations here).
type Analyzer struct {
	last  lastTable // datum -> position of last reference (1-based in tree)
	tree  []int32   // Fenwick tree over positions 1..len(tree)-1; 1 if position is the latest ref to its datum
	pos   int       // last position used on the current time axis
	freed uint64    // positions reclaimed by compactions: References() = freed + pos
	marks []uint64  // compaction scratch: bitmap of live positions
	hist  []uint64  // hist[d] = count of references at finite distance d
	cold  uint64    // first-time references (infinite distance)
	max   int       // max finite distance observed
}

// lastTable is an open-addressing (linear probing) hash table mapping a
// datum to the 1-based position of its previous reference. A slot with
// position 0 is empty — positions are 1-based, so no separate occupancy
// marks are needed. The table doubles at 50% load.
type lastTable struct {
	keys []uint64
	pos  []int32
	n    int
	mask uint64
}

func newLastTable(hint int) lastTable {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	return lastTable{
		keys: make([]uint64, size),
		pos:  make([]int32, size),
		mask: uint64(size - 1),
	}
}

// slot returns the index holding key, or the empty slot where it belongs.
func (t *lastTable) slot(key uint64) int {
	// Fibonacci hashing spreads clustered line addresses across the table.
	i := (key * 0x9E3779B97F4A7C15) & t.mask
	for t.pos[i] != 0 && t.keys[i] != key {
		i = (i + 1) & t.mask
	}
	return int(i)
}

func (t *lastTable) grow() {
	old := *t
	size := 2 * len(old.keys)
	t.keys = make([]uint64, size)
	t.pos = make([]int32, size)
	t.mask = uint64(size - 1)
	for i, p := range old.pos {
		if p != 0 {
			j := t.slot(old.keys[i])
			t.keys[j] = old.keys[i]
			t.pos[j] = p
		}
	}
}

func (t *lastTable) reset() {
	clear(t.pos)
	t.n = 0
}

// maxPositions bounds the time axis: positions and tree nodes are int32
// (halving the footprint the Fenwick walks traverse). Compaction keeps the
// axis at a few positions per distinct datum, so this limits the
// footprint, not the stream length.
const maxPositions = math.MaxInt32

// NewAnalyzer returns an Analyzer expecting roughly capacityHint references
// (the structure grows as needed; the hint only pre-sizes storage).
func NewAnalyzer(capacityHint int) *Analyzer {
	if capacityHint < 16 {
		capacityHint = 16
	}
	if capacityHint > maxPositions {
		capacityHint = maxPositions
	}
	tableHint := capacityHint / 4
	if tableHint > 1<<20 {
		tableHint = 1 << 20 // the table doubles on demand past this
	}
	return &Analyzer{
		last: newLastTable(tableHint),
		tree: make([]int32, capacityHint+1),
	}
}

// Reset returns the analyzer to its empty state, keeping the allocated
// tree, histogram, and hash-table storage for reuse on the next stream.
func (a *Analyzer) Reset() {
	a.last.reset()
	t := a.tree[:cap(a.tree)]
	clear(t)
	a.tree = t
	clear(a.hist)
	a.pos = 0
	a.freed = 0
	a.cold = 0
	a.max = 0
}

func (a *Analyzer) add(i, delta int) {
	for ; i < len(a.tree); i += i & (-i) {
		a.tree[i] += int32(delta)
	}
}

// move shifts one marker from position p to the later position q. The
// nodes both update paths share get −1 and +1, so each walk stops where
// the two paths merge.
func (a *Analyzer) move(p, q int) {
	for p != q {
		if p < q {
			if p >= len(a.tree) {
				return
			}
			a.tree[p]--
			p += p & -p
		} else {
			if q >= len(a.tree) {
				return
			}
			a.tree[q]++
			q += q & -q
		}
	}
}

func (a *Analyzer) sum(i int) int {
	s := int32(0)
	for ; i > 0; i -= i & (-i) {
		s += a.tree[i]
	}
	return int(s)
}

// rangeSum returns the marker count in (p, q], p <= q: sum(q) - sum(p)
// computed by peeling both prefix paths until they meet at their common
// ancestor. When the previous reference is recent (the common case under
// locality) this walks O(log(q-p)) nodes instead of two full prefix walks.
func (a *Analyzer) rangeSum(p, q int) int {
	s := int32(0)
	for q > p {
		s += a.tree[q]
		q -= q & (-q)
	}
	for p > q {
		s -= a.tree[p]
		p -= p & (-p)
	}
	return int(s)
}

// compact renumbers the live markers — one per distinct datum, at the
// positions lastTable holds — to 1..D in their existing order, and
// rebuilds the tree over the renumbered axis. Stack distances count
// markers between two positions, which renumbering preserves. The ranks
// come from a bitmap of live positions: the tree is about to be rebuilt,
// so its first words hold the bitmap's running popcounts meanwhile.
func (a *Analyzer) compact() {
	d := a.last.n
	if d >= maxPositions/4 {
		panic("stackdist: more than 2^29 distinct data in one analyzer")
	}
	words := a.pos>>6 + 1
	if cap(a.marks) < words {
		a.marks = make([]uint64, words)
	}
	marks := a.marks[:words]
	clear(marks)
	for _, p := range a.last.pos {
		if p != 0 {
			marks[p>>6] |= 1 << (p & 63)
		}
	}
	// rank(p) = live positions in [1, p] = live positions in earlier words
	// plus those at or below p in its own word.
	before := a.tree[:words]
	n := int32(0)
	for w, m := range marks {
		before[w] = n
		n += int32(bits.OnesCount64(m))
	}
	for i, p := range a.last.pos {
		if p != 0 {
			m := marks[p>>6] & (2<<(p&63) - 1)
			a.last.pos[i] = before[p>>6] + int32(bits.OnesCount64(m))
		}
	}

	size := len(a.tree) - 1
	for size < 4*d {
		size = min(2*size, maxPositions)
	}
	if size+1 > len(a.tree) {
		a.tree = make([]int32, size+1)
	}
	// Positions 1..d are marked: node i covers (i-lowbit(i), i], so it
	// holds the part of that range at or below d.
	for i := 1; i < len(a.tree); i++ {
		lo := i - i&-i
		a.tree[i] = int32(max(0, min(i, d)-lo))
	}
	a.freed += uint64(a.pos - d)
	a.pos = d
}

// Touch ingests one reference to the given datum (an opaque identity, e.g.
// a cache-line address) and returns its stack distance, or -1 for a
// first-time (cold) reference.
func (a *Analyzer) Touch(datum uint64) int {
	if a.pos+1 == len(a.tree) {
		a.compact()
	}
	a.pos++
	d := -1
	i := a.last.slot(datum)
	if p := int(a.last.pos[i]); p != 0 {
		// Markers strictly after p and before the current position are the
		// distinct data touched in between.
		d = a.rangeSum(p, a.pos-1)
		a.move(p, a.pos)
		a.count(d)
	} else {
		a.last.keys[i] = datum
		a.last.n++
		a.cold++
		a.add(a.pos, 1)
	}
	a.last.pos[i] = int32(a.pos)
	if 2*a.last.n > len(a.last.keys) {
		a.last.grow()
	}
	return d
}

// count records one finite distance in the dense histogram.
func (a *Analyzer) count(d int) {
	if d >= len(a.hist) {
		if d < cap(a.hist) {
			a.hist = a.hist[:d+1]
		} else {
			grown := make([]uint64, d+1, max(2*cap(a.hist), d+1))
			copy(grown, a.hist)
			a.hist = grown
		}
	}
	a.hist[d]++
	if d > a.max {
		a.max = d
	}
}

// TouchAll ingests every memory reference of a batch of trace events at the
// given line granularity (a power of two; 1 means item granularity),
// skipping compute and barrier events. It is the bulk entry point for
// characterization passes: one call per event run, no per-reference call
// overhead or distance returns.
func (a *Analyzer) TouchAll(events []trace.Event, lineSize int) {
	if lineSize < 1 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("stackdist: line size %d not a power of two", lineSize))
	}
	shift := 0
	for 1<<shift < lineSize {
		shift++
	}
	for _, e := range events {
		if e.Kind != trace.Read && e.Kind != trace.Write {
			continue
		}
		datum := e.Addr >> shift
		if a.pos+1 == len(a.tree) {
			a.compact()
		}
		a.pos++
		i := a.last.slot(datum)
		if p := int(a.last.pos[i]); p != 0 {
			a.count(a.rangeSum(p, a.pos-1))
			a.move(p, a.pos)
		} else {
			a.last.keys[i] = datum
			a.last.n++
			a.cold++
			a.add(a.pos, 1)
		}
		a.last.pos[i] = int32(a.pos)
		if 2*a.last.n > len(a.last.keys) {
			a.last.grow()
		}
	}
}

// References returns the total number of references ingested.
func (a *Analyzer) References() uint64 { return a.freed + uint64(a.pos) }

// Cold returns the number of first-time references.
func (a *Analyzer) Cold() uint64 { return a.cold }

// Distinct returns the number of distinct data seen.
func (a *Analyzer) Distinct() int { return a.last.n }

// Distribution extracts the empirical distance distribution accumulated so
// far. It is safe to keep ingesting afterwards.
func (a *Analyzer) Distribution() Distribution {
	n := 0
	for _, c := range a.hist {
		if c > 0 {
			n++
		}
	}
	dist := Distribution{
		Distances: make([]int, 0, n),
		Counts:    make([]uint64, 0, n),
		Cold:      a.cold,
	}
	// The dense histogram is already in ascending distance order.
	for d, c := range a.hist {
		if c == 0 {
			continue
		}
		dist.Distances = append(dist.Distances, d)
		dist.Counts = append(dist.Counts, c)
		dist.Total += c
	}
	return dist
}

// Distribution is an empirical stack-distance distribution: sorted distinct
// finite distances with their reference counts, plus the cold-miss count.
type Distribution struct {
	Distances []int    // sorted ascending
	Counts    []uint64 // parallel to Distances
	Cold      uint64   // first-time references (infinite distance)
	Total     uint64   // sum of Counts (finite-distance references)
}

// CDF returns the cumulative probability P(distance <= x) among
// finite-distance references. The curve is what the paper's eq. (1) is fit
// against. An empty distribution yields P(x) = 0.
func (d Distribution) CDF(x int) float64 {
	if d.Total == 0 || x < 0 {
		return 0
	}
	i := sort.SearchInts(d.Distances, x+1) // first index with distance > x
	var c uint64
	for j := 0; j < i; j++ {
		c += d.Counts[j]
	}
	return float64(c) / float64(d.Total)
}

// Points returns the empirical CDF as (x, P(distance <= x)) pairs, one per
// distinct observed distance, suitable for least-squares fitting.
func (d Distribution) Points() (xs []float64, ps []float64) {
	xs = make([]float64, len(d.Distances))
	ps = make([]float64, len(d.Distances))
	var c uint64
	for i, x := range d.Distances {
		c += d.Counts[i]
		xs[i] = float64(x)
		ps[i] = float64(c) / float64(d.Total)
	}
	return xs, ps
}

// HitRatio returns the hit ratio of a fully associative LRU cache with the
// given capacity (in the same units as the datum identities, e.g. lines),
// counting cold misses as misses: hits = references with distance < capacity.
func (d Distribution) HitRatio(capacity int) float64 {
	refs := d.Total + d.Cold
	if refs == 0 || capacity <= 0 {
		return 0
	}
	i := sort.SearchInts(d.Distances, capacity) // first index with distance >= capacity
	var hits uint64
	for j := 0; j < i; j++ {
		hits += d.Counts[j]
	}
	return float64(hits) / float64(refs)
}

// Mean returns the mean finite stack distance, or NaN if none were observed.
func (d Distribution) Mean() float64 {
	if d.Total == 0 {
		return math.NaN()
	}
	var s float64
	for i, x := range d.Distances {
		s += float64(x) * float64(d.Counts[i])
	}
	return s / float64(d.Total)
}

// Quantile returns the smallest distance q such that P(distance <= q) >= p,
// for p in (0, 1]. It returns an error on an empty distribution or a p out
// of range.
func (d Distribution) Quantile(p float64) (int, error) {
	if d.Total == 0 {
		return 0, fmt.Errorf("stackdist: quantile of empty distribution")
	}
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("stackdist: quantile p=%v out of (0,1]", p)
	}
	target := uint64(math.Ceil(p * float64(d.Total)))
	var c uint64
	for i, x := range d.Distances {
		c += d.Counts[i]
		if c >= target {
			return x, nil
		}
	}
	return d.Distances[len(d.Distances)-1], nil
}

// Merge combines two distributions (e.g. from different processors of an
// SPMD program) into one.
func Merge(a, b Distribution) Distribution {
	m := make(map[int]uint64, len(a.Distances)+len(b.Distances))
	for i, d := range a.Distances {
		m[d] += a.Counts[i]
	}
	for i, d := range b.Distances {
		m[d] += b.Counts[i]
	}
	ds := make([]int, 0, len(m))
	for d := range m {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	out := Distribution{Distances: ds, Counts: make([]uint64, len(ds)), Cold: a.Cold + b.Cold}
	for i, d := range ds {
		out.Counts[i] = m[d]
		out.Total += m[d]
	}
	return out
}

// Downsample returns a distribution whose support is reduced to at most
// maxPoints logarithmically spaced distances, preserving total mass by
// merging each bucket into its largest member distance. Fitting quality is
// insensitive to this compaction while it bounds the cost of least squares
// on very long traces.
func (d Distribution) Downsample(maxPoints int) Distribution {
	if maxPoints <= 0 || len(d.Distances) <= maxPoints {
		return d
	}
	lo, hi := d.Distances[0], d.Distances[len(d.Distances)-1]
	if lo < 1 {
		lo = 1
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(maxPoints))
	if ratio <= 1 {
		ratio = 1 + 1e-9
	}
	out := Distribution{Cold: d.Cold}
	bucketHi := float64(lo)
	var acc uint64
	accDist := d.Distances[0]
	flush := func() {
		if acc > 0 {
			out.Distances = append(out.Distances, accDist)
			out.Counts = append(out.Counts, acc)
			out.Total += acc
			acc = 0
		}
	}
	for i, x := range d.Distances {
		for float64(x) > bucketHi {
			flush()
			bucketHi *= ratio
		}
		acc += d.Counts[i]
		accDist = x
	}
	flush()
	return out
}

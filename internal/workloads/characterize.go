package workloads

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"memhier/internal/locality"
	"memhier/internal/sim/cache"
	"memhier/internal/stackdist"
	"memhier/internal/trace"
)

// Characterization is the paper's per-program workload summary (Table 2):
// the fitted locality parameters plus the measurement context.
type Characterization struct {
	Workload string
	Problem  string
	Params   locality.Params // Alpha, Beta (in measurement granules), Gamma
	Fit      locality.FitStats
	LineSize int     // stack-distance granule in bytes: 1 = data item
	Refs     uint64  // memory references analyzed
	HitMass  float64 // fraction of references with stack distance < 2:
	// intra-operation reuse (read-modify-write pairs, butterfly operands)
	// that the first cache level absorbs under any configuration. The
	// fitted P(x) describes the remaining references; downstream miss
	// fractions scale by 1 − HitMass.
	Distinct int // distinct granules touched (the footprint, and the
	// truncation point for the model's CDF)
	// Conflict is κ: the measured miss-ratio inflation of the paper's
	// 2-way set-associative cache geometry (§5.1) over the fully
	// associative LRU ideal that the stack-distance theory describes,
	// at the reference capacity of CharacterizeOptions.ConflictRefBytes.
	// Strided access patterns (FFT transposes, Radix permutes) inflate
	// real misses well beyond the fully associative curve; the model
	// multiplies its cache-level miss fraction by κ.
	Conflict float64
	// ConflictCurve holds the same measurement at several capacities
	// (bytes → κ, ascending), letting the model interpolate κ at whatever
	// cache size a configuration has.
	ConflictCurve []ConflictSample
}

// CharacterizeOptions tunes Characterize. The zero value measures stack
// distances at data-item granularity — the paper's "number of unique data
// items" — and downsamples the empirical CDF to 512 logarithmically spaced
// points before fitting. Setting LineSize > 1 measures at cache-line
// granularity instead (folding spatial locality into the distances), which
// the ablation benchmarks use.
type CharacterizeOptions struct {
	LineSize  int // 0 or 1: item granularity; else a power-of-two line size
	MaxPoints int // CDF downsample budget; default 512; <0 disables
	// ConflictRefBytes is the cache capacity at which the 2-way conflict
	// factor κ is measured. 0 means 16 KB (the validation experiments'
	// scaled cache size); negative disables the measurement (κ = 1).
	ConflictRefBytes int
}

// ConflictSample is one (capacity, κ) point of the conflict curve.
type ConflictSample struct {
	Bytes int
	Kappa float64
}

// Characterize runs the workload on a single processor (as the paper does:
// α and β are collected on a one-processor system, then rescaled
// analytically for n processors), computes the stack-distance distribution
// of its reference stream, and fits the paper's P(x) model by least
// squares. It measures the one granularity opts.LineSize selects; see
// CharacterizeLines.
func Characterize(w Workload, opts CharacterizeOptions) (Characterization, error) {
	cs, err := CharacterizeLines(w, []int{opts.LineSize}, opts)
	if err != nil {
		return Characterization{}, err
	}
	return cs[0], nil
}

// chunkEvents is the fan-out granule of a characterization pass: 4096
// events, 96 KiB. A pass holds at most depth+2 chunks (see
// CharacterizeLines), so the granule sets its slack; at 4096 the
// consumers stay as busy as at 1<<15 for an eighth of the memory.
const chunkEvents = 1 << 12

// chunk is one fan-out batch of events, shared read-only by every
// consumer; the last consumer to finish with it recycles it.
type chunk struct {
	evs     []trace.Event
	pending atomic.Int32 // consumers still reading evs
}

// CharacterizeLines characterizes w at every granularity in lineSizes
// (each 0 or 1 for data items, else a power-of-two line size in bytes)
// from one run of the kernel; opts.LineSize is ignored. Element i equals
// Characterize(w, opts) with LineSize lineSizes[i]: the conflict factor κ
// is measured once and shared, and its 64-byte-line fully associative
// baseline is the 64-byte analyzer when 64 is among the sizes. The
// kernel's events fan out to the concurrent consumers in recycled chunks
// of chunkEvents; the trace itself is never stored.
func CharacterizeLines(w Workload, lineSizes []int, opts CharacterizeOptions) ([]Characterization, error) {
	if len(lineSizes) == 0 {
		return nil, fmt.Errorf("workloads: characterizing %s: no line sizes", w.Name())
	}
	sizes := make([]int, len(lineSizes))
	for i, lineSize := range lineSizes {
		if lineSize == 0 {
			lineSize = 1
		}
		if lineSize < 1 || lineSize&(lineSize-1) != 0 {
			return nil, fmt.Errorf("workloads: line size %d not a power of two", lineSize)
		}
		sizes[i] = lineSize
	}
	maxPoints := opts.MaxPoints
	if maxPoints == 0 {
		maxPoints = 512
	}

	ans := make([]*stackdist.Analyzer, len(sizes))
	var lineAn *stackdist.Analyzer // 64-byte-line distances for the κ baseline
	for i, lineSize := range sizes {
		ans[i] = stackdist.NewAnalyzer(1 << 16)
		if lineSize == 64 && lineAn == nil {
			lineAn = ans[i]
		}
	}

	refBytes := opts.ConflictRefBytes
	if refBytes == 0 {
		refBytes = 16 << 10
	}
	// Conflict curve: the scalar reference size plus a spread of capacities
	// bracketing the validation experiments' scaled caches.
	var curveSizes []int
	var refCaches []*cache.Cache
	var refMisses []uint64
	var refAccesses uint64
	var extraLineAn *stackdist.Analyzer // the κ baseline when 64 is not among sizes
	if refBytes > 0 {
		curveSizes = []int{4 << 10, 16 << 10, 64 << 10}
		if refBytes != 16<<10 {
			curveSizes = append(curveSizes, refBytes)
			sortInts(curveSizes)
		}
		for _, sz := range curveSizes {
			refCaches = append(refCaches, cache.New(sz, 64, 2))
		}
		refMisses = make([]uint64, len(curveSizes))
		if lineAn == nil {
			extraLineAn = stackdist.NewAnalyzer(1 << 16)
			lineAn = extraLineAn
		}
	}

	var counts trace.CountingSink

	// The measurement consumers — one analyzer per granularity, the
	// 64-byte-line analyzer for the κ baseline when no granularity
	// provides it, and one LRU simulation per conflict-curve capacity — are
	// independent single-pass readers of the same reference stream. Fan
	// generated events out to them in chunks over channels so they run
	// concurrently; every consumer sees the full stream in order, so
	// results are identical to the serial pass.
	//
	// Each consumer channel buffers depth chunks, so the producer runs at
	// most that far ahead of the slowest consumer. The free list holds
	// every chunk that can be alive at once — the buffered ones, one per
	// consumer being read, and the one being filled — so in steady state
	// no chunk is allocated.
	const depth = 8
	free := make(chan *chunk, depth+2)
	var wg sync.WaitGroup
	var chans []chan *chunk
	consume := func(fn func([]trace.Event)) {
		ch := make(chan *chunk, depth)
		chans = append(chans, ch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				fn(c.evs)
				if c.pending.Add(-1) == 0 {
					select {
					case free <- c:
					default:
					}
				}
			}
		}()
	}
	for i, an := range ans {
		an, lineSize := an, sizes[i]
		consume(func(evs []trace.Event) { an.TouchAll(evs, lineSize) })
	}
	if extraLineAn != nil {
		consume(func(evs []trace.Event) { extraLineAn.TouchAll(evs, 64) })
	}
	for i := range refCaches {
		i, rc := i, refCaches[i]
		consume(func(evs []trace.Event) {
			for _, e := range evs {
				if e.Kind == trace.Read || e.Kind == trace.Write {
					if _, hit := rc.Lookup(e.Addr); !hit {
						refMisses[i]++
						rc.Fill(e.Addr, cache.Shared)
					}
				}
			}
		})
	}

	next := func() *chunk {
		select {
		case c := <-free:
			c.evs = c.evs[:0]
			return c
		default:
			return &chunk{evs: make([]trace.Event, 0, chunkEvents)}
		}
	}
	cur := next()
	flush := func() {
		if len(cur.evs) == 0 {
			return
		}
		cur.pending.Store(int32(len(chans)))
		for _, ch := range chans {
			ch <- cur
		}
		cur = next()
	}
	sink := trace.FuncSink(func(_ int, e trace.Event) {
		counts.Emit(0, e)
		if e.Kind == trace.Read || e.Kind == trace.Write {
			refAccesses++
		}
		cur.evs = append(cur.evs, e)
		if len(cur.evs) == chunkEvents {
			flush()
		}
	})
	err := w.Run(1, sink)
	flush()
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("workloads: characterizing %s: %w", w.Name(), err)
	}

	conflict := 1.0
	var curve []ConflictSample
	if len(refCaches) > 0 && refAccesses > 0 {
		// The fully associative baseline uses the undownsampled line-64
		// distribution so capacity boundaries are exact.
		faDist := lineAn.Distribution()
		for i, sz := range curveSizes {
			faMiss := 1 - faDist.HitRatio(sz/64)
			twoWayMiss := float64(refMisses[i]) / float64(refAccesses)
			k := 1.0
			if faMiss > 0 && twoWayMiss > 0 {
				k = twoWayMiss / faMiss
			}
			curve = append(curve, ConflictSample{Bytes: sz, Kappa: k})
			if sz == refBytes {
				conflict = k
			}
		}
	}

	out := make([]Characterization, len(sizes))
	for i, an := range ans {
		c, err := fitDistances(w, an, maxPoints)
		if err != nil {
			return nil, err
		}
		c.Params.Gamma = counts.Gamma()
		c.LineSize = sizes[i]
		c.Conflict = conflict
		c.ConflictCurve = slices.Clone(curve)
		out[i] = c
	}
	return out, nil
}

// fitDistances fits the paper's P(x) model to one analyzer's
// stack-distance distribution, filling every Characterization field that
// depends on the granularity alone.
func fitDistances(w Workload, an *stackdist.Analyzer, maxPoints int) (Characterization, error) {
	dist := an.Distribution()
	if maxPoints > 0 {
		dist = dist.Downsample(maxPoints)
	}
	// The model form has P(0) ≡ 0 and essentially no mass at unit
	// distances (the paper's Table 2 parameters give P(1) ≈ 0.002), yet an
	// element-granular reference stream necessarily carries intra-operation
	// reuse: a store back to the address just loaded is stack distance 0 or
	// 1. Such references hit the first cache level under every
	// configuration, so we split them off as HitMass and fit the paper's
	// curve to the conditional distribution of the remaining references, on
	// log-spaced points with uniform weights so every capacity decade gets
	// equal say.
	const dmin = 2
	hitMass := dist.CDF(dmin - 1)
	if 1-hitMass <= 0 {
		return Characterization{}, fmt.Errorf("workloads: %s trace has no reuse beyond distance %d; cannot fit", w.Name(), dmin-1)
	}
	allXs, allPs := dist.Points()
	var xs, ps []float64
	for i := range allXs {
		if allXs[i] >= dmin {
			xs = append(xs, allXs[i])
			ps = append(ps, (allPs[i]-hitMass)/(1-hitMass))
		}
	}
	if len(xs) < 2 {
		return Characterization{}, fmt.Errorf("workloads: %s trace has no reuse beyond distance %d; cannot fit", w.Name(), dmin)
	}
	params, stats, err := locality.Fit(xs, ps, locality.FitOptions{})
	if err != nil {
		return Characterization{}, fmt.Errorf("workloads: fitting %s: %w", w.Name(), err)
	}
	return Characterization{
		Workload: w.Name(),
		Problem:  w.Description(),
		Params:   params,
		Fit:      stats,
		HitMass:  hitMass,
		Refs:     an.References(),
		Distinct: an.Distinct(),
	}, nil
}

// AnalyzeStreams computes the stack-distance distribution of every
// processor's reference stream and merges them into one distribution, the
// per-CPU counterpart of Characterize's single-stream measurement. Each
// stream is analyzed concurrently by its own Analyzer (batched through
// TouchAll), then the per-CPU distributions are combined with
// stackdist.Merge. lineSize is the measurement granule (1 = data item; else
// a power-of-two line size).
func AnalyzeStreams(tr *trace.Trace, lineSize int) (stackdist.Distribution, error) {
	if lineSize < 1 || lineSize&(lineSize-1) != 0 {
		return stackdist.Distribution{}, fmt.Errorf("workloads: line size %d not a power of two", lineSize)
	}
	if tr.NumCPU() == 0 {
		return stackdist.Distribution{}, nil
	}
	dists := make([]stackdist.Distribution, tr.NumCPU())
	var wg sync.WaitGroup
	for i := range tr.Streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.Streams[i]
			// The stream's reference count bounds its footprint, so below
			// the cap (which keeps huge traces sane) the analyzer never
			// compacts.
			hint := int(s.MemoryRefs())
			if hint > 1<<20 {
				hint = 1 << 20
			}
			an := stackdist.NewAnalyzer(hint)
			an.TouchAll(s.Events, lineSize)
			dists[i] = an.Distribution()
		}(i)
	}
	wg.Wait()
	merged := dists[0]
	for _, d := range dists[1:] {
		merged = stackdist.Merge(merged, d)
	}
	return merged, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

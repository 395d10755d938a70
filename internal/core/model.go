// Package core implements the paper's primary contribution: the analytical
// model of Du & Zhang (IPPS 1999) predicting the average memory access time
// T and the average execution time per instruction E(Instr) of an SPMD
// application on a single SMP, a cluster of workstations, or a cluster of
// SMPs, from the application's locality characterization and the platform's
// memory hierarchy.
//
// The model follows the paper's construction:
//
//   - the stack-distance CDF P(x) = 1 − (x/β+1)^−(α−1) (eq. 1) with the
//     multiprocessor rescaling β → β/(nN) (§5.2);
//   - the hierarchy decomposition T = t1 + Σ t_i·∫_{s_{i−1}} p(x)dx
//     (eq. 7), each level's incremental penalty weighted by the miss
//     fraction beyond the previous level's capacity;
//   - M/G/1 contention with deterministic service at shared levels
//     (eq. for t2(o)): R(τ, a) = (τ − aτ²/2)/(1 − aτ);
//   - the order-statistics barrier term (1/2 + … + 1/p)/(γS) folded as in
//     eq. (11); and
//   - the remote-access-rate adjustment (+12.4%) that compensates for
//     unmodeled shared-memory coherence traffic on clusters (§5.3.2).
//
// One documented deviation: the arrival rates feeding the queueing terms
// use the achieved instruction rate 1/(1/S + γT) rather than the peak rate
// S. With peak-rate arrivals the paper's own Table 2 parameters drive the
// M/D/1 utilization far beyond 1 (processors cannot issue new blocking
// references while stalled), so the model is closed with a fixed point on
// T, solved by bisection. All times are in CPU cycles.
//
//chc:deterministic
package core

import (
	"errors"
	"fmt"
	"math"

	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/queueing"
)

// Workload is the model's application description, produced by trace
// characterization (or taken from the paper's Table 2).
type Workload struct {
	Name     string
	Locality locality.Params // α, β (in data items), γ — one-processor fit
	// HitMass is the fraction of references with stack distance < 2
	// (intra-operation reuse absorbed by the first level under any
	// configuration); the fitted P(x) describes the remaining references.
	HitMass float64
	// BytesPerItem converts level capacities in bytes to the data-item
	// units of β. Zero means 8 (one double-precision word).
	BytesPerItem float64
	// FootprintItems is the program's total distinct data items (0 if
	// unknown). Levels marked TruncateAtFootprint (disk) receive no
	// capacity traffic when the per-process footprint fits above them: a
	// program whose data fit in memory never pages, even though the fitted
	// power-law tail never quite reaches 1. Intermediate levels keep the
	// untruncated tail — on clusters it stands in for the sharing traffic
	// the capacity model cannot see, which is the paper's implicit
	// mechanism (its fitted curves also stay well below 1 at the
	// footprint), later calibrated by the coherence rate adjustment.
	FootprintItems float64
	// ConflictFactor is κ: the measured miss-ratio inflation of the 2-way
	// set-associative cache geometry over the fully associative LRU ideal
	// of the stack-distance theory, applied to the cache-level miss
	// fraction. Zero or negative means 1 (no correction).
	ConflictFactor float64
	// ConflictCurve optionally refines ConflictFactor with measurements at
	// several reference capacities (in the workload's data-item units);
	// the model interpolates log-linearly in capacity and clamps at the
	// ends. When set, it takes precedence over ConflictFactor.
	ConflictCurve []ConflictPoint
	// RemoteShare is the fraction of the application's references that
	// touch data homed on another machine of the cluster (measurable from
	// the multiprocessor address stream by first-touch partition analysis;
	// see experiments.MeasureSharing). The cluster levels add
	// RemoteShare × (cache-miss fraction) of sharing traffic on top of the
	// capacity tail: a cache miss to remotely homed data crosses the
	// network no matter how large the local memory is. Zero (the default)
	// reduces to the pure capacity model. This reconstructs the
	// communication term of the paper's cluster formulas (tech report [3],
	// unavailable); see DESIGN.md §4.
	RemoteShare float64
	// CoherenceMissRate is the fraction of references that re-touch a
	// block another machine wrote since the accessor's previous access
	// (invalidation-induced misses under write-invalidate coherence),
	// measured from the multiprocessor address stream
	// (experiments.MeasureSharing). It adds directly to the cluster
	// remote-level traffic: these misses cross the network regardless of
	// any capacity. The coherence adjustment δ then scales the total
	// remote rate, as in the paper.
	CoherenceMissRate float64
}

func (w Workload) bytesPerItem() float64 {
	if w.BytesPerItem <= 0 {
		return 8
	}
	return w.BytesPerItem
}

// Validate checks the workload is inside the model's domain.
func (w Workload) Validate() error {
	if err := w.Locality.Validate(); err != nil {
		return err
	}
	if w.HitMass < 0 || w.HitMass >= 1 || math.IsNaN(w.HitMass) {
		return fmt.Errorf("core: HitMass %v out of [0,1)", w.HitMass)
	}
	if w.Locality.Gamma == 0 {
		return errors.New("core: workload has γ = 0; the model needs memory references")
	}
	if w.RemoteShare < 0 || w.RemoteShare > 1 || math.IsNaN(w.RemoteShare) {
		return fmt.Errorf("core: RemoteShare %v out of [0,1]", w.RemoteShare)
	}
	if w.CoherenceMissRate < 0 || w.CoherenceMissRate > 1 || math.IsNaN(w.CoherenceMissRate) {
		return fmt.Errorf("core: CoherenceMissRate %v out of [0,1]", w.CoherenceMissRate)
	}
	return nil
}

// Options tunes model variants; the zero value selects the paper's
// settings.
type Options struct {
	// CoherenceAdjust is δ, the remote-access-rate inflation compensating
	// for unmodeled coherence traffic on clusters (§5.3.2). NaN or 0 means
	// the paper's 12.4% for cluster platforms (it never applies to a
	// single SMP). Negative disables it (ablation).
	CoherenceAdjust float64
	// DirtyFraction is the fraction of remote accesses served from a
	// remote cache (three-hop transfers at the "remotely cached" latency)
	// rather than a remote memory. Zero means 0.2; negative means 0.
	DirtyFraction float64
	// DSMShare is φ, the fraction of a machine's memory that acts as the
	// local working area under the software shared-memory layer on
	// clusters; the rest caches remote data and holds DSM metadata. Zero
	// means 0.5.
	DSMShare float64
	// NoContention removes the queueing terms (ablation).
	NoContention bool
	// UseMVA replaces the paper's open M/D/1 contention model with exact
	// closed-network Mean Value Analysis: each shared level is a center
	// visited by (ArrivalMult+1) customers whose think time is their
	// inter-access gap. The closed model cannot saturate — a blocked
	// processor stops generating load — which makes it the principled
	// counterpart of the achieved-rate fixed point (ablation/extension).
	UseMVA bool
	// NoBarrier removes the barrier order-statistics term (ablation).
	NoBarrier bool
	// NoRescale disables the multiprocessor β rescaling (ablation).
	NoRescale bool
	// Latencies overrides the §5.1 latency table.
	Latencies *machine.Latencies
}

func (o Options) coherenceAdjust(kind machine.PlatformKind) float64 {
	if kind == machine.SMP {
		return 0
	}
	switch {
	case o.CoherenceAdjust < 0:
		return 0
	case o.CoherenceAdjust == 0 || math.IsNaN(o.CoherenceAdjust):
		return 0.124
	}
	return o.CoherenceAdjust
}

func (o Options) dirtyFraction() float64 {
	switch {
	case o.DirtyFraction < 0:
		return 0
	case o.DirtyFraction == 0:
		return 0.2
	}
	return math.Min(o.DirtyFraction, 1)
}

func (o Options) dsmShare() float64 {
	if o.DSMShare <= 0 {
		return 0.5
	}
	return math.Min(o.DSMShare, 1)
}

// ConflictPoint is one (capacity, κ) measurement of the conflict curve.
type ConflictPoint struct {
	CapacityItems float64
	Kappa         float64
}

// kappaAt returns the conflict factor at the given cache capacity,
// log-interpolating the curve when present.
func (w Workload) kappaAt(capacityItems float64) float64 {
	curve := w.ConflictCurve
	if len(curve) == 0 {
		if w.ConflictFactor > 0 {
			return w.ConflictFactor
		}
		return 1
	}
	if capacityItems <= curve[0].CapacityItems {
		return curve[0].Kappa
	}
	last := curve[len(curve)-1]
	if capacityItems >= last.CapacityItems {
		return last.Kappa
	}
	for i := 1; i < len(curve); i++ {
		a, b := curve[i-1], curve[i]
		if capacityItems <= b.CapacityItems {
			t := (math.Log(capacityItems) - math.Log(a.CapacityItems)) /
				(math.Log(b.CapacityItems) - math.Log(a.CapacityItems))
			return a.Kappa + t*(b.Kappa-a.Kappa)
		}
	}
	return last.Kappa
}

// Level is one memory-hierarchy level beyond the cache in the model's
// decomposition of T.
type Level struct {
	Name string
	// CapacityItems is the per-process effective capacity of the previous
	// level, in data items: references with stack distance beyond it pay
	// this level's penalty.
	CapacityItems float64
	// Service is the uncontended incremental penalty τ_i in cycles.
	Service float64
	// ArrivalMult scales the per-processor access rate into the external
	// competing arrival rate at the shared server (e.g. n−1 on an SMP
	// memory bus, Nn−1 on an Ethernet bus, n on a switch port).
	ArrivalMult float64
	// RateAdjust multiplies the access rate to this level (1+δ for remote
	// levels).
	RateAdjust float64
	// TruncateAtFootprint marks levels (disk) that carry no traffic when
	// the per-process footprint fits within the previous level's capacity.
	TruncateAtFootprint bool
	// SharingLevel marks the cluster's remote-memory level, which receives
	// the workload's RemoteShare sharing traffic in addition to its
	// capacity tail.
	SharingLevel bool
}

// LevelStats reports one level's share of the solved model. The JSON
// encoding is part of the chc-serve API surface.
type LevelStats struct {
	Name          string  `json:"name"`
	MissFraction  float64 `json:"miss_fraction"`      // fraction of references paying this penalty
	Uncontended   float64 `json:"uncontended_cycles"` // τ_i
	Contended     float64 `json:"contended_cycles"`   // M/D/1 response at the solution
	Utilization   float64 `json:"utilization"`        // offered load at the shared server
	CyclesPerRef  float64 `json:"cycles_per_ref"`     // MissFraction × Contended
	CapacityItems float64 `json:"capacity_items"`
}

// Result is a solved model evaluation. The JSON encoding is part of the
// chc-serve API surface.
type Result struct {
	Config  machine.Config `json:"config"`
	T       float64        `json:"t_cycles"`       // average memory access time per reference, cycles
	Barrier float64        `json:"barrier_cycles"` // barrier contribution included in T, cycles
	// EInstr is the average execution time per instruction across the
	// whole platform, (1/(nN))·(1/S + γT), in cycles (eq. 4).
	EInstr float64 `json:"e_instr_cycles"`
	// Seconds is EInstr converted with the configured clock.
	Seconds    float64      `json:"seconds"`
	Levels     []LevelStats `json:"levels"`
	Iterations int          `json:"iterations"` // fixed-point bisection steps
}

// Evaluate solves the model for one platform configuration and workload.
func Evaluate(cfg machine.Config, wl Workload, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := wl.Validate(); err != nil {
		return Result{}, err
	}
	levels, err := buildLevels(cfg, opts)
	if err != nil {
		return Result{}, err
	}

	totalProcs := cfg.TotalProcs()
	params := wl.Locality
	if !opts.NoRescale {
		params = params.Rescale(totalProcs)
	}
	gamma := params.Gamma

	// Per-level miss fractions (constant in the fixed point). Capacities
	// come from buildLevels in 8-byte words; rescale to the workload's
	// data-item size.
	itemScale := 8 / wl.bytesPerItem()
	perProcFootprint := wl.FootprintItems
	if perProcFootprint > 0 && !opts.NoRescale {
		perProcFootprint /= float64(totalProcs)
	}
	// The index of the first beyond-cache level: intermediate cache levels
	// (L2, L3) occupy indices 0..cacheExit-1, so miss[cacheExit] is the
	// fraction of references leaving the private cache hierarchy — the
	// "cache miss fraction" of the one-level formulas (where cacheExit is
	// 0 and everything reduces to the paper's form).
	cacheExit := len(cfg.CacheLevels()) - 1
	miss := make([]float64, len(levels))
	for i := range levels {
		levels[i].CapacityItems *= itemScale
		if levels[i].TruncateAtFootprint && perProcFootprint > 0 &&
			levels[i].CapacityItems >= perProcFootprint {
			miss[i] = 0
			continue
		}
		miss[i] = (1 - wl.HitMass) * params.MissBeyond(levels[i].CapacityItems)
		// κ inflates the misses leaving the level-1 cache (the 2-way
		// set-associative geometry the factor was measured on); deeper
		// boundaries keep the associativity-free stack-distance tail. A
		// boundary whose capacity still equals L1's is the same boundary
		// (a degenerate equal-capacity level adds no stack inclusion), so
		// κ follows it — which makes collapsing a zero-latency
		// equal-capacity intermediate level an exact no-op.
		//chc:allow floateq -- capacities derive from identical integer byte counts
		if i == 0 || (i <= cacheExit && levels[i].CapacityItems == levels[0].CapacityItems) {
			kappa := wl.kappaAt(levels[i].CapacityItems)
			miss[i] = math.Min(1-wl.HitMass, miss[i]*kappa)
		}
		if levels[i].SharingLevel {
			// Sharing traffic on top of the capacity tail: the RemoteShare
			// portion of cache misses crosses the network regardless of
			// local memory capacity, and invalidation-induced coherence
			// misses cross it regardless of any capacity. Capped at the
			// non-register reference mass.
			withSharing := miss[i] + wl.RemoteShare*miss[cacheExit] + wl.CoherenceMissRate
			miss[i] = math.Min(withSharing, 1-wl.HitMass)
		}
	}

	// Barrier term: (1/2 + … + 1/p)/(γS) added to T (paper eq. 11), with
	// S = 1 instruction/cycle.
	barrier := 0.0
	if !opts.NoBarrier && totalProcs > 1 {
		barrier = queueing.BarrierSum(totalProcs) / gamma
	}

	lat := machine.LatenciesAt(cfg.Kind, cfg.ClockMHz)
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}
	// A multi-level config may pin its L1 hit latency; one-level configs
	// keep the table's value, so the paper platforms are untouched.
	lat.CacheHit = cfg.L1Latency(lat.CacheHit)

	// computeT evaluates the right-hand side of the fixed point given an
	// achieved instruction rate R (instructions per cycle). It returns
	// +Inf when a queueing center saturates at that rate.
	// On clusters the order-statistics factor applies to the network
	// component of a bulk-synchronous phase: the phase's wall time is the
	// maximum over processors of their (bursty, exponential-like) network
	// time, E[max] = H(p)·mean, so the remote level's effective time is
	// inflated by H(nN). The SMP-level barrier cost stays the paper's
	// additive term. See DESIGN.md §4.
	netFactor := 1.0
	if !opts.NoBarrier && totalProcs > 1 {
		netFactor = queueing.Harmonic(totalProcs)
	}
	// contended evaluates one level's response time under the selected
	// contention model at per-processor access rate lambda.
	contended := func(lv Level, lambda float64) (float64, error) {
		if opts.NoContention || lv.ArrivalMult <= 0 || lambda <= 0 {
			return lv.Service, nil
		}
		if opts.UseMVA {
			customers := int(math.Round(lv.ArrivalMult)) + 1
			think := 1/lambda - lv.Service
			if think < 0 {
				think = 0
			}
			return queueing.MVAResponse(lv.Service, think, customers)
		}
		// Guarded: near-saturated loads (ρ > 0.999) are treated as
		// saturated — the fixed point must not settle on a point where
		// the 1/(1−ρ) pole amplifies rate noise into the response.
		return queueing.MD1ResponseGuarded(lv.Service, lv.ArrivalMult*lambda,
			queueing.Guard{MaxRho: queueing.DefaultMaxRho})
	}

	computeT := func(r float64) float64 {
		t := lat.CacheHit + barrier
		for i, lv := range levels {
			lambda := gamma * r * miss[i] * lv.RateAdjust
			resp, err := contended(lv, lambda)
			if err != nil {
				return math.Inf(1)
			}
			if lv.SharingLevel {
				resp *= netFactor
			}
			t += miss[i] * resp
		}
		return t
	}
	rate := func(t float64) float64 { return 1 / (1/lat.Instruction + gamma*t) }

	// Uncontended T is the lower bound of the fixed point.
	lo := lat.CacheHit + barrier
	for i, lv := range levels {
		lo += miss[i] * lv.Service
	}
	// f(T) = computeT(rate(T)) − T is decreasing; find hi with f(hi) < 0.
	const maxIter = 400
	iter := 0
	hi := lo + 1
	for computeT(rate(hi)) > hi {
		hi *= 2
		iter++
		if iter > maxIter {
			return Result{}, fmt.Errorf("core: %s: fixed point diverged (T > %g cycles)", cfg.Name, hi)
		}
	}
	t := hi
	lob := lo
	for i := 0; i < 200 && (hi-lob) > 1e-9*hi; i++ {
		mid := (lob + hi) / 2
		if computeT(rate(mid)) > mid {
			lob = mid
		} else {
			hi = mid
		}
		iter++
	}
	t = hi

	r := rate(t)
	res := Result{
		Config:     cfg,
		T:          t,
		Barrier:    barrier,
		EInstr:     (1/lat.Instruction + gamma*t) / float64(totalProcs),
		Iterations: iter,
	}
	res.Seconds = res.EInstr / (cfg.ClockMHz * 1e6)
	for i, lv := range levels {
		lambda := gamma * r * miss[i] * lv.RateAdjust
		arrival := lv.ArrivalMult * lambda
		if opts.NoContention {
			arrival = 0
		}
		resp, err := contended(lv, lambda)
		if err != nil {
			return Result{}, fmt.Errorf("core: %s: saturated at solution (level %s): %w", cfg.Name, lv.Name, err)
		}
		if lv.SharingLevel {
			resp *= netFactor
		}
		res.Levels = append(res.Levels, LevelStats{
			Name:          lv.Name,
			MissFraction:  miss[i],
			Uncontended:   lv.Service,
			Contended:     resp,
			Utilization:   queueing.Utilization(lv.Service, arrival),
			CyclesPerRef:  miss[i] * resp,
			CapacityItems: lv.CapacityItems,
		})
	}
	return res, nil
}

// buildLevels constructs the per-platform hierarchy beyond the cache.
// Capacities are per-process effective shares in data items; see DESIGN.md
// §4 for the derivation.
func buildLevels(cfg machine.Config, opts Options) ([]Level, error) {
	lat := machine.LatenciesAt(cfg.Kind, cfg.ClockMHz)
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}
	// Capacities are expressed in 8-byte words here; Evaluate rescales them
	// to the workload's data-item size.
	items := func(bytes int64) float64 { return float64(bytes) / 8 }
	n := float64(cfg.Procs)
	N := float64(cfg.N)

	// Multi-level hierarchies: the intermediate cache levels (L2, L3) sit
	// in front of the per-platform beyond-cache hierarchy as private,
	// uncontended levels — each one's boundary is the previous level's
	// capacity, exactly the EMAT recursion
	// EMAT = L1 + m1·(L2 + m2·(L3 + m3·Mem)) unrolled into eq. 7's
	// per-level decomposition. The beyond-cache hierarchy then starts at
	// the outermost cache level's capacity. A one-level config prepends
	// nothing and returns the per-platform slice unchanged.
	cl := cfg.CacheLevels()
	lastCache := items(cfg.LastCacheBytes())
	deep := func(beyond []Level) []Level {
		if len(cl) == 1 {
			return beyond
		}
		levels := make([]Level, 0, len(cl)-1+len(beyond))
		for i := 1; i < len(cl); i++ {
			levels = append(levels, Level{
				Name:          fmt.Sprintf("L%d cache", i+1),
				CapacityItems: items(cl[i-1].Bytes),
				Service:       cl[i].LatencyCycles,
				ArrivalMult:   0,
				RateAdjust:    1,
			})
		}
		return append(levels, beyond...)
	}

	dirty := opts.dirtyFraction()
	netService := func() (float64, error) {
		rn, ok := lat.RemoteNode[cfg.Net]
		if !ok {
			return 0, fmt.Errorf("core: %s: no remote latency for network %v", cfg.Name, cfg.Net)
		}
		rc := lat.RemoteCached[cfg.Net]
		return (1-dirty)*rn + dirty*rc, nil
	}
	adj := 1 + opts.coherenceAdjust(cfg.Kind)

	switch cfg.Kind {
	case machine.SMP:
		return deep([]Level{
			{Name: "memory", CapacityItems: lastCache,
				Service: lat.LocalMemory, ArrivalMult: n - 1, RateAdjust: 1},
			{Name: "disk", CapacityItems: items(cfg.MemoryBytes) / n,
				Service: lat.LocalDisk, ArrivalMult: n - 1, RateAdjust: 1, TruncateAtFootprint: true},
		}), nil

	case machine.ClusterWS:
		if cfg.N == 1 {
			// A single workstation degenerates to a uniprocessor.
			return deep([]Level{
				{Name: "memory", CapacityItems: lastCache,
					Service: lat.LocalMemory, ArrivalMult: 0, RateAdjust: 1},
				{Name: "disk", CapacityItems: items(cfg.MemoryBytes),
					Service: lat.LocalDisk, ArrivalMult: 0, RateAdjust: 1, TruncateAtFootprint: true},
			}), nil
		}
		svc, err := netService()
		if err != nil {
			return nil, err
		}
		phi := opts.dsmShare()
		netArrival := 1.0 // switch: per-port server sees ≈ one node's rate
		if cfg.Net.IsBus() {
			netArrival = N - 1
		}
		_ = N
		return deep([]Level{
			// Beyond the cache: the local memory (the φ share acting as the
			// process's working area under the DSM layer).
			{Name: "local memory", CapacityItems: lastCache,
				Service: lat.LocalMemory, ArrivalMult: 0, RateAdjust: 1},
			// Beyond the local working area: a remote memory over the
			// cluster network.
			{Name: "remote memory", CapacityItems: phi * items(cfg.MemoryBytes),
				Service: svc, ArrivalMult: netArrival, RateAdjust: adj, SharingLevel: true},
			// Beyond the per-process share of the aggregate memory
			// (N·mem over N processes): disk.
			{Name: "disk", CapacityItems: items(cfg.MemoryBytes),
				Service: lat.LocalDisk, ArrivalMult: 0, RateAdjust: 1, TruncateAtFootprint: true},
		}), nil

	case machine.ClusterSMP:
		if cfg.N == 1 {
			// A single SMP machine: fall back to the SMP hierarchy.
			smp := cfg
			smp.Kind = machine.SMP
			return buildLevels(smp, opts)
		}
		svc, err := netService()
		if err != nil {
			return nil, err
		}
		phi := opts.dsmShare()
		netArrival := n // switch: a node's port is shared by its n processors
		if cfg.Net.IsBus() {
			netArrival = n*N - 1
		}
		_ = N
		return deep([]Level{
			// Beyond the cache: the machine's memory (n processors share
			// it, and its bus).
			{Name: "local memory", CapacityItems: lastCache,
				Service: lat.LocalMemory, ArrivalMult: n - 1, RateAdjust: 1},
			// Beyond the per-processor share of the local working area.
			{Name: "remote memory", CapacityItems: phi * items(cfg.MemoryBytes) / n,
				Service: svc, ArrivalMult: netArrival, RateAdjust: adj, SharingLevel: true},
			// Beyond the per-process share of the aggregate memory
			// (N·mem over nN processes): disk.
			{Name: "disk", CapacityItems: items(cfg.MemoryBytes) / n,
				Service: lat.LocalDisk, ArrivalMult: n - 1, RateAdjust: 1, TruncateAtFootprint: true},
		}), nil
	}
	return nil, fmt.Errorf("core: unknown platform kind %d", int(cfg.Kind))
}

// Package cost implements the paper's cost model (eq. 5) and the
// constrained optimization of eq. 6: choose the number of machines N, the
// processors per machine n, the network type, and the cache/memory sizes
// that minimize the modeled E(Instr) subject to
//
//	C_cluster = N·C_machine(n) + N·C_net ≤ B,
//
// solved — as the paper does — by enumerating the (small) integer domain.
// It also implements the §6 upgrade problem: given an existing cluster and
// a budget increase B′, find the best reachable configuration.
package cost

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"memhier/internal/core"
	"memhier/internal/machine"
)

// Catalog prices the system components. DefaultCatalog encodes 1999-era
// estimates consistent with the paper's case-study narrative (a $5,000
// budget buys either four 64 MB workstations on Ethernet or three 32 MB
// workstations on an ATM switch, and cannot buy SMPs; $20,000 opens the SMP
// space). Absolute dollars only scale the budget axis.
type Catalog struct {
	// WSBase is a 200 MHz uniprocessor workstation with 256 KB cache and
	// 32 MB memory.
	WSBase float64
	// SMPBase prices an n-processor SMP machine with 256 KB caches and
	// 64 MB memory, keyed by n.
	SMPBase map[int]float64
	// CacheUpgrade is the per-processor cost of moving 256 KB → 512 KB.
	CacheUpgrade float64
	// MemoryPer32MB is the cost of each additional 32 MB of memory.
	MemoryPer32MB float64
	// NetPerNode is the per-machine cost of the cluster network (NIC plus
	// hub/switch-port share).
	NetPerNode map[machine.NetworkKind]float64
	// CPUPer100MHz is the per-processor premium of each 100 MHz of clock
	// above the 200 MHz baseline (slower clocks earn no refund).
	CPUPer100MHz float64
	// DeepCachePerMB is the per-processor cost of each MB of capacity in
	// cache levels beyond the first (L2/L3). Level-1 capacity is priced by
	// CacheUpgrade as before, so one-level platforms cost exactly what
	// they always did.
	DeepCachePerMB float64
}

// DefaultCatalog returns the 1999-era price estimates.
func DefaultCatalog() Catalog {
	return Catalog{
		WSBase:        950,
		SMPBase:       map[int]float64{2: 6000, 4: 11000},
		CacheUpgrade:  300,
		MemoryPer32MB: 150,
		NetPerNode: map[machine.NetworkKind]float64{
			machine.NetNone:      0,
			machine.NetBus10:     75,
			machine.NetBus100:    150,
			machine.NetSwitch155: 650,
		},
		CPUPer100MHz:   500,
		DeepCachePerMB: 200,
	}
}

const (
	baseCache = 256 << 10
	mb32      = 32 << 20
)

// deepBytes sums the capacity of every cache level beyond the first.
func deepBytes(cfg machine.Config) int64 {
	var total int64
	if levels := cfg.CacheLevels(); len(levels) > 1 {
		for _, lv := range levels[1:] {
			total += lv.Bytes
		}
	}
	return total
}

// MachineCost prices one machine of the configuration (C_machine(n) in
// eq. 5).
func (c Catalog) MachineCost(cfg machine.Config) (float64, error) {
	var price float64
	var baseMem int64
	if cfg.Procs == 1 && cfg.Kind != machine.ClusterSMP && cfg.Kind != machine.SMP {
		price = c.WSBase
		baseMem = mb32
	} else {
		p, ok := c.SMPBase[cfg.Procs]
		if !ok {
			return 0, fmt.Errorf("cost: no price for a %d-processor SMP", cfg.Procs)
		}
		price = p
		baseMem = 2 * mb32
	}
	if cfg.CacheBytes > baseCache {
		steps := float64(cfg.CacheBytes-baseCache) / float64(baseCache)
		price += steps * c.CacheUpgrade * float64(cfg.Procs)
	}
	if levels := cfg.CacheLevels(); len(levels) > 1 {
		for _, lv := range levels[1:] {
			price += float64(lv.Bytes) / (1 << 20) * c.DeepCachePerMB * float64(cfg.Procs)
		}
	}
	if cfg.MemoryBytes > baseMem {
		price += float64(cfg.MemoryBytes-baseMem) / mb32 * c.MemoryPer32MB
	}
	if cfg.ClockMHz > machine.ReferenceClockMHz {
		price += (cfg.ClockMHz - machine.ReferenceClockMHz) / 100 * c.CPUPer100MHz * float64(cfg.Procs)
	}
	return price, nil
}

// ClusterCost prices the whole platform: N·C_machine(n) + N·C_net (eq. 5).
func (c Catalog) ClusterCost(cfg machine.Config) (float64, error) {
	m, err := c.MachineCost(cfg)
	if err != nil {
		return 0, err
	}
	net, ok := c.NetPerNode[cfg.Net]
	if !ok {
		return 0, fmt.Errorf("cost: no price for network %v", cfg.Net)
	}
	if cfg.N == 1 {
		net = 0
	}
	return float64(cfg.N) * (m + net), nil
}

// Space is the enumeration domain of the optimizer.
type Space struct {
	MaxMachines   int
	SMPSizes      []int   // processors per SMP machine
	CacheOptions  []int64 // per-processor cache sizes (one-level hierarchies)
	MemoryOptions []int64 // per-machine memory sizes
	// DeepOptions adds multi-level hierarchy choices beside CacheOptions:
	// each entry is a full per-processor level stack, innermost first.
	DeepOptions [][]machine.CacheLevel
	Networks    []machine.NetworkKind
	ClockMHz    float64
	// ClockOptions adds alternative processor clocks to the enumeration
	// (empty means ClockMHz only). With mixed clocks the optimizer ranks
	// by wall seconds, not cycles.
	ClockOptions []float64
}

// DefaultSpace returns the domain used in the paper's case studies:
// clusters of up to 16 machines, 2- or 4-processor SMPs, 256/512 KB caches,
// 32–128 MB memories, and the three networks of §5.1.
func DefaultSpace() Space {
	return Space{
		MaxMachines:   16,
		SMPSizes:      []int{2, 4},
		CacheOptions:  []int64{256 << 10, 512 << 10},
		MemoryOptions: []int64{32 << 20, 64 << 20, 128 << 20},
		Networks:      []machine.NetworkKind{machine.NetBus10, machine.NetBus100, machine.NetSwitch155},
		ClockMHz:      200,
	}
}

// Enumerate generates every structurally valid configuration in the space:
// single SMPs, clusters of workstations, and clusters of SMPs, at every
// clock option.
func (s Space) Enumerate() []machine.Config {
	clocks := s.ClockOptions
	if len(clocks) == 0 {
		clocks = []float64{s.ClockMHz}
	}
	var out []machine.Config
	for _, clock := range clocks {
		out = append(out, s.enumerateAt(clock)...)
	}
	return out
}

func (s Space) enumerateAt(clock float64) []machine.Config {
	s.ClockMHz = clock
	var out []machine.Config
	add := func(c machine.Config) {
		if c.Validate() == nil {
			c.Name = describe(c)
			out = append(out, c)
		}
	}
	// The cache axis: every one-level option, then every deep stack.
	type hierOpt struct {
		cache  int64
		levels []machine.CacheLevel
	}
	hiers := make([]hierOpt, 0, len(s.CacheOptions)+len(s.DeepOptions))
	for _, cache := range s.CacheOptions {
		hiers = append(hiers, hierOpt{cache: cache})
	}
	for _, lv := range s.DeepOptions {
		if len(lv) > 0 {
			hiers = append(hiers, hierOpt{cache: lv[0].Bytes, levels: lv})
		}
	}
	for _, h := range hiers {
		for _, mem := range s.MemoryOptions {
			// Single SMPs.
			for _, n := range s.SMPSizes {
				add(machine.Config{Kind: machine.SMP, N: 1, Procs: n,
					CacheBytes: h.cache, Levels: h.levels, MemoryBytes: mem, Net: machine.NetNone, ClockMHz: s.ClockMHz})
			}
			for N := 1; N <= s.MaxMachines; N++ {
				nets := s.Networks
				if N == 1 {
					nets = []machine.NetworkKind{machine.NetNone}
				}
				for _, net := range nets {
					// Clusters of workstations.
					add(machine.Config{Kind: machine.ClusterWS, N: N, Procs: 1,
						CacheBytes: h.cache, Levels: h.levels, MemoryBytes: mem, Net: net, ClockMHz: s.ClockMHz})
					// Clusters of SMPs (N >= 2 to be a cluster).
					if N >= 2 {
						for _, n := range s.SMPSizes {
							add(machine.Config{Kind: machine.ClusterSMP, N: N, Procs: n,
								CacheBytes: h.cache, Levels: h.levels, MemoryBytes: mem, Net: net, ClockMHz: s.ClockMHz})
						}
					}
				}
			}
		}
	}
	return out
}

func describe(c machine.Config) string {
	clock := ""
	if c.ClockMHz != machine.ReferenceClockMHz {
		clock = fmt.Sprintf(" @%gMHz", c.ClockMHz)
	}
	// CacheDesc spells one-level hierarchies "%dKB" exactly as the old
	// format string did, and lists the levels ("32KB+1MB") otherwise.
	switch c.Kind {
	case machine.SMP:
		return fmt.Sprintf("SMP n=%d cache=%s mem=%dMB%s",
			c.Procs, c.CacheDesc(), c.MemoryBytes>>20, clock)
	case machine.ClusterWS:
		return fmt.Sprintf("WSx%d cache=%s mem=%dMB net=%v%s",
			c.N, c.CacheDesc(), c.MemoryBytes>>20, c.Net, clock)
	default:
		return fmt.Sprintf("SMP%dx%d cache=%s mem=%dMB net=%v%s",
			c.Procs, c.N, c.CacheDesc(), c.MemoryBytes>>20, c.Net, clock)
	}
}

// Scored is one feasible configuration with its price and modeled
// performance.
type Scored struct {
	Config machine.Config `json:"config"`
	Cost   float64        `json:"cost"`
	EInstr float64        `json:"e_instr_cycles"` // modeled cycles per instruction (cluster-wide)
	// Seconds is EInstr in wall time — the ranking key, so platforms with
	// different clocks compare fairly.
	Seconds float64 `json:"seconds"`
}

// Optimize solves eq. 6: the feasible configuration with minimal modeled
// E(Instr) under the budget. It returns the winner and the full feasible
// ranking (best first). Configurations whose model evaluation fails (e.g.
// saturation) are skipped.
func Optimize(budget float64, wl core.Workload, cat Catalog, space Space, opts core.Options) (Scored, []Scored, error) {
	if budget <= 0 {
		return Scored{}, nil, fmt.Errorf("cost: budget must be positive, got %v", budget)
	}
	ps := priced(space, cat)
	var feasible []Scored
	for _, k := range ps.byEnum {
		pc := &ps.byCost[k]
		if pc.cost > budget {
			continue
		}
		res, err := core.Evaluate(pc.cfg, wl, opts)
		if err != nil {
			continue
		}
		feasible = append(feasible, Scored{Config: ownConfig(pc.cfg), Cost: pc.cost,
			EInstr: res.EInstr, Seconds: res.Seconds})
	}
	if len(feasible) == 0 {
		return Scored{}, nil, errors.New("cost: no feasible configuration under the budget")
	}
	// Stable so full (Seconds, Cost) ties keep enumeration order — the
	// tie-break contract OptimizeBudgets reproduces bit-identically.
	sort.SliceStable(feasible, func(i, j int) bool {
		if feasible[i].Seconds != feasible[j].Seconds {
			return feasible[i].Seconds < feasible[j].Seconds
		}
		return feasible[i].Cost < feasible[j].Cost
	})
	return feasible[0], feasible, nil
}

// UpgradeCost prices moving an existing homogeneous cluster to a new
// configuration of the same platform kind and machine class: new machines
// are bought at the target spec, existing machines are retrofitted with the
// cache/memory difference, and a network change re-equips every node (the
// old interface is sunk cost). Shrinking any dimension is not a purchase
// and costs nothing for that dimension.
func (c Catalog) UpgradeCost(old, next machine.Config) (float64, error) {
	if next.Kind != old.Kind || next.Procs != old.Procs {
		return 0, fmt.Errorf("cost: upgrades keep the machine class (%v n=%d → %v n=%d)",
			old.Kind, old.Procs, next.Kind, next.Procs)
	}
	if next.N < old.N {
		return 0, fmt.Errorf("cost: upgrades do not remove machines (%d → %d)", old.N, next.N)
	}
	if next.ClockMHz != old.ClockMHz {
		return 0, fmt.Errorf("cost: upgrades keep the processor clock (%g → %g MHz)", old.ClockMHz, next.ClockMHz)
	}
	var total float64
	// New machines at full target spec.
	if next.N > old.N {
		m, err := c.MachineCost(next)
		if err != nil {
			return 0, err
		}
		total += float64(next.N-old.N) * m
	}
	// Retrofit the existing machines.
	if next.CacheBytes > old.CacheBytes {
		steps := float64(next.CacheBytes-old.CacheBytes) / float64(baseCache)
		total += float64(old.N) * steps * c.CacheUpgrade * float64(old.Procs)
	}
	if next.MemoryBytes > old.MemoryBytes {
		total += float64(old.N) * float64(next.MemoryBytes-old.MemoryBytes) / mb32 * c.MemoryPer32MB
	}
	if dn, do := deepBytes(next), deepBytes(old); dn > do {
		total += float64(old.N) * float64(dn-do) / (1 << 20) * c.DeepCachePerMB * float64(old.Procs)
	}
	// Network change: every node needs the new interface. Added nodes on an
	// unchanged network still need one each.
	netNew, ok := c.NetPerNode[next.Net]
	if !ok {
		return 0, fmt.Errorf("cost: no price for network %v", next.Net)
	}
	if next.N > 1 {
		if next.Net != old.Net {
			total += float64(next.N) * netNew
		} else if next.N > old.N {
			total += float64(next.N-old.N) * netNew
		}
	}
	return total, nil
}

// UpgradePlan is the outcome of the upgrade optimization.
type UpgradePlan struct {
	From        machine.Config `json:"from"`
	To          machine.Config `json:"to"`
	UpgradeCost float64        `json:"upgrade_cost"`
	OldEInstr   float64        `json:"old_e_instr_cycles"`
	NewEInstr   float64        `json:"new_e_instr_cycles"`
	Speedup     float64        `json:"speedup"` // OldEInstr / NewEInstr
}

// Upgrade finds the best configuration reachable from the existing cluster
// with at most budgetIncrease of new spending (the paper's second
// optimization problem). The machine class is fixed; machines, memory,
// cache, and the network are upgradable.
func Upgrade(existing machine.Config, budgetIncrease float64, wl core.Workload,
	cat Catalog, space Space, opts core.Options) (UpgradePlan, error) {
	if err := existing.Validate(); err != nil {
		return UpgradePlan{}, err
	}
	if budgetIncrease < 0 {
		return UpgradePlan{}, fmt.Errorf("cost: negative budget increase %v", budgetIncrease)
	}
	baseRes, err := core.Evaluate(existing, wl, opts)
	if err != nil {
		return UpgradePlan{}, fmt.Errorf("cost: evaluating existing cluster: %w", err)
	}
	best := UpgradePlan{From: existing, To: existing, OldEInstr: baseRes.EInstr,
		NewEInstr: baseRes.EInstr, Speedup: 1}
	for _, cfg := range space.Enumerate() {
		if cfg.Kind != existing.Kind || cfg.Procs != existing.Procs || cfg.N < existing.N {
			continue
		}
		if cfg.CacheBytes < existing.CacheBytes || cfg.MemoryBytes < existing.MemoryBytes ||
			deepBytes(cfg) < deepBytes(existing) {
			continue
		}
		price, err := cat.UpgradeCost(existing, cfg)
		if err != nil || price > budgetIncrease {
			continue
		}
		res, err := core.Evaluate(cfg, wl, opts)
		if err != nil {
			continue
		}
		if res.EInstr < best.NewEInstr {
			best.To = cfg
			best.UpgradeCost = price
			best.NewEInstr = res.EInstr
			best.Speedup = best.OldEInstr / res.EInstr
		}
	}
	if math.IsNaN(best.Speedup) {
		return UpgradePlan{}, errors.New("cost: degenerate upgrade evaluation")
	}
	return best, nil
}

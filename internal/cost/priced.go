package cost

// The priced design space: enumerating a Space, pricing every
// configuration under a Catalog, grouping and sorting them depends on
// neither the workload nor the budget, so it is done once per
// (space, catalog) value and shared by every search that follows —
// Optimize, BudgetSweep and OptimizeBudgets. On DefaultSpace
// the build is about 1 ms and 800 KB, several times what the pruned
// search spends evaluating the model.

import (
	"maps"
	"math"
	"slices"
	"sync"

	"memhier/internal/machine"
)

// pricedConfig is one enumerated configuration with its catalog price and
// its position in the enumeration (the brute-force tie-break order).
type pricedConfig struct {
	cfg   machine.Config
	cost  float64
	group int // structure group: same kind/N/procs/net/clock
	index int // enumeration position
}

// pricedSpace is a Space enumerated and priced under one Catalog. It is
// shared between goroutines and never written after enumeratePriced
// returns it: a search copies what it hands out (see ownConfig).
type pricedSpace struct {
	// byCost lists the priceable configurations by ascending cost, ties
	// in enumeration order.
	byCost []pricedConfig
	// byEnum lists byCost's indices in enumeration order.
	byEnum []int
	// maxima maps each structure group to its capacity-maximal members,
	// as indices into byCost.
	maxima [][]int
}

// ownConfig returns cfg with a Levels list of its own, so a result never
// aliases the shared pricedSpace.
func ownConfig(cfg machine.Config) machine.Config {
	if cfg.Levels != nil {
		cfg.Levels = slices.Clone(cfg.Levels)
	}
	return cfg
}

// pricedMemo holds the most recently priced space. Every search in the
// program prices DefaultSpace under DefaultCatalog, so one entry serves
// them all; a caller alternating between spaces pays the enumeration it
// always paid.
var pricedMemo struct {
	mu   sync.Mutex
	last *pricedEntry // guarded by mu
}

// pricedEntry is one memoized (space, catalog) pair. The key fields are
// deep copies, so a caller mutating its Space or Catalog afterwards cannot
// reach them; once guards the build, so concurrent first callers wait for
// one enumeration instead of each running their own.
type pricedEntry struct {
	space Space
	cat   Catalog
	once  sync.Once
	ps    *pricedSpace
}

// priced returns the priced form of space under cat, enumerating it
// unless it is the (space, catalog) value priced last.
func priced(space Space, cat Catalog) *pricedSpace {
	pricedMemo.mu.Lock()
	e := pricedMemo.last
	if e == nil || !sameSpace(e.space, space) || !sameCatalog(e.cat, cat) {
		e = &pricedEntry{space: cloneSpace(space), cat: cloneCatalog(cat)}
		pricedMemo.last = e
	}
	pricedMemo.mu.Unlock()
	e.once.Do(func() { e.ps = e.space.enumeratePriced(e.cat) })
	return e.ps
}

// sameBits compares floats by representation, so a value that only
// compares equal (-0 against 0) gets its own build, and a NaN field still
// finds its own entry.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSpace(a, b Space) bool {
	return a.MaxMachines == b.MaxMachines &&
		slices.Equal(a.SMPSizes, b.SMPSizes) &&
		slices.Equal(a.CacheOptions, b.CacheOptions) &&
		slices.Equal(a.MemoryOptions, b.MemoryOptions) &&
		slices.EqualFunc(a.DeepOptions, b.DeepOptions, func(x, y []machine.CacheLevel) bool {
			return slices.EqualFunc(x, y, func(p, q machine.CacheLevel) bool {
				return p.Bytes == q.Bytes && sameBits(p.LatencyCycles, q.LatencyCycles)
			})
		}) &&
		slices.Equal(a.Networks, b.Networks) &&
		sameBits(a.ClockMHz, b.ClockMHz) &&
		slices.EqualFunc(a.ClockOptions, b.ClockOptions, sameBits)
}

func sameCatalog(a, b Catalog) bool {
	return sameBits(a.WSBase, b.WSBase) &&
		maps.EqualFunc(a.SMPBase, b.SMPBase, sameBits) &&
		sameBits(a.CacheUpgrade, b.CacheUpgrade) &&
		sameBits(a.MemoryPer32MB, b.MemoryPer32MB) &&
		maps.EqualFunc(a.NetPerNode, b.NetPerNode, sameBits) &&
		sameBits(a.CPUPer100MHz, b.CPUPer100MHz) &&
		sameBits(a.DeepCachePerMB, b.DeepCachePerMB)
}

func cloneSpace(s Space) Space {
	s.SMPSizes = slices.Clone(s.SMPSizes)
	s.CacheOptions = slices.Clone(s.CacheOptions)
	s.MemoryOptions = slices.Clone(s.MemoryOptions)
	s.Networks = slices.Clone(s.Networks)
	s.ClockOptions = slices.Clone(s.ClockOptions)
	if s.DeepOptions != nil {
		deep := make([][]machine.CacheLevel, len(s.DeepOptions))
		for i, lv := range s.DeepOptions {
			deep[i] = slices.Clone(lv)
		}
		s.DeepOptions = deep
	}
	return s
}

func cloneCatalog(c Catalog) Catalog {
	c.SMPBase = maps.Clone(c.SMPBase)
	c.NetPerNode = maps.Clone(c.NetPerNode)
	return c
}

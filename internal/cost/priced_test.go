package cost

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"memhier/internal/core"
	"memhier/internal/machine"
)

// resetPricedMemo empties the memo, so a test sees first builds.
func resetPricedMemo() {
	pricedMemo.mu.Lock()
	pricedMemo.last = nil
	pricedMemo.mu.Unlock()
}

// enumOptimize is Optimize as it was before the priced memo: enumerate
// and price the space on every call. The memoized searches must agree
// with it bit for bit.
func enumOptimize(budget float64, wl core.Workload, cat Catalog, space Space, opts core.Options) (Scored, []Scored, bool) {
	var feasible []Scored
	for _, cfg := range space.Enumerate() {
		price, err := cat.ClusterCost(cfg)
		if err != nil || price > budget {
			continue
		}
		res, err := core.Evaluate(cfg, wl, opts)
		if err != nil {
			continue
		}
		feasible = append(feasible, Scored{Config: cfg, Cost: price, EInstr: res.EInstr, Seconds: res.Seconds})
	}
	if len(feasible) == 0 {
		return Scored{}, nil, false
	}
	sort.SliceStable(feasible, func(i, j int) bool {
		if feasible[i].Seconds != feasible[j].Seconds {
			return feasible[i].Seconds < feasible[j].Seconds
		}
		return feasible[i].Cost < feasible[j].Cost
	})
	return feasible[0], feasible, true
}

// enumSweep is BudgetSweep over enumOptimize.
func enumSweep(budgets []float64, wl core.Workload, cat Catalog, space Space) []SweepPoint {
	sorted := append([]float64(nil), budgets...)
	sort.Float64s(sorted)
	var out []SweepPoint
	for _, b := range sorted {
		if best, all, ok := enumOptimize(b, wl, cat, space, core.Options{}); ok {
			out = append(out, SweepPoint{Budget: b, Best: best, Feasible: len(all)})
		}
	}
	return out
}

// deepClockSpace is a space with multi-level hierarchies and two clocks:
// its configurations carry Levels, which the memo must never hand out.
func deepClockSpace() Space {
	s := DefaultSpace()
	s.MaxMachines = 6
	s.DeepOptions = [][]machine.CacheLevel{
		{{Bytes: 256 << 10}, {Bytes: 1 << 20, LatencyCycles: 10}},
		{{Bytes: 32 << 10, LatencyCycles: 4}, {Bytes: 512 << 10, LatencyCycles: 12}, {Bytes: 2 << 20, LatencyCycles: 40}},
	}
	s.ClockOptions = []float64{200, 400}
	return s
}

// TestPricedSearchesMatchEnumeration runs Optimize, BudgetSweep and
// OptimizeBudgets concurrently from an empty memo, over
// the default space and a deep, two-clock space, and checks every answer
// against the per-call enumeration.
func TestPricedSearchesMatchEnumeration(t *testing.T) {
	wl, _ := core.PaperWorkload("Radix")
	cat := DefaultCatalog()
	budgets := []float64{3000, 8000, 20000, 60000}
	type want struct {
		space  Space
		best   []Scored   // per budget
		all    [][]Scored // per budget
		sweep  []SweepPoint
		pruned []BudgetPoint
	}
	var wants []want
	for _, space := range []Space{DefaultSpace(), deepClockSpace()} {
		w := want{space: space, sweep: enumSweep(budgets, wl, cat, space)}
		for _, b := range budgets {
			best, all, ok := enumOptimize(b, wl, cat, space, core.Options{})
			if !ok {
				t.Fatalf("budget %v infeasible", b)
			}
			w.best, w.all = append(w.best, best), append(w.all, all)
		}
		var err error
		if w.pruned, _, err = OptimizeBudgets(budgets, wl, cat, space, core.Options{}); err != nil {
			t.Fatal(err)
		}
		assertSweepEquivalent(t, w.pruned, w.sweep)
		wants = append(wants, w)
	}

	resetPricedMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, job := range rng.Perm(3 * len(wants)) {
				w := wants[job%len(wants)]
				switch job / len(wants) {
				case 0:
					for i, b := range budgets {
						best, all, err := Optimize(b, wl, cat, w.space, core.Options{})
						if err != nil || !reflect.DeepEqual(best, w.best[i]) || !reflect.DeepEqual(all, w.all[i]) {
							t.Errorf("Optimize(%v): ranking differs from the enumeration (err %v)", b, err)
						}
					}
				case 1:
					sweep, err := BudgetSweep(budgets, wl, cat, w.space, core.Options{})
					if err != nil || !reflect.DeepEqual(sweep, w.sweep) {
						t.Errorf("BudgetSweep differs from the enumeration (err %v)", err)
					}
				case 2:
					pruned, _, err := OptimizeBudgets(budgets, wl, cat, w.space, core.Options{})
					if err != nil || !reflect.DeepEqual(pruned, w.pruned) {
						t.Errorf("OptimizeBudgets differs from its serial run (err %v)", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPricedResultsOwnTheirLevels: a caller mutating the Levels of a
// returned configuration must reach neither the memo entry nor the next
// call's answer.
func TestPricedResultsOwnTheirLevels(t *testing.T) {
	wl, _ := core.PaperWorkload("FFT")
	cat, space := DefaultCatalog(), deepClockSpace()
	scramble := func(cfg machine.Config) {
		for i := range cfg.Levels {
			cfg.Levels[i] = machine.CacheLevel{Bytes: 1, LatencyCycles: 1e6}
		}
	}
	resetPricedMemo()
	ps := priced(space, cat)
	for round := 0; round < 2; round++ {
		wantBest, wantAll, _ := enumOptimize(1e6, wl, cat, space, core.Options{})
		best, all, err := Optimize(1e6, wl, cat, space, core.Options{})
		if err != nil || !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(all, wantAll) {
			t.Fatalf("round %d: Optimize differs from the enumeration (err %v)", round, err)
		}
		deep := 0
		for _, s := range append(all, best) {
			if len(s.Config.Levels) > 1 {
				deep++
			}
			scramble(s.Config)
		}
		if deep == 0 {
			t.Fatal("no multi-level configuration in the ranking; the test exercises nothing")
		}
		pts, _, err := OptimizeBudgets([]float64{5000, 1e6}, wl, cat, space, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSweepEquivalent(t, pts, enumSweep([]float64{5000, 1e6}, wl, cat, space))
		for _, p := range pts {
			scramble(p.Best.Config)
		}
		// The entry must still match its space and hold what a fresh
		// enumeration builds: a returned list aliasing it would have
		// rewritten its key or its configurations.
		if priced(space, cat) != ps || !reflect.DeepEqual(ps, space.enumeratePriced(cat)) {
			t.Fatalf("round %d: mutating returned configurations changed the memo entry", round)
		}
	}
}

// TestPricedMemoKeysOnEveryField: a space or catalog that differs from a
// memoized one in any single field — or that its caller mutated in place
// after a call — gets its own enumeration.
func TestPricedMemoKeysOnEveryField(t *testing.T) {
	wl, _ := core.PaperWorkload("EDGE")
	base, baseCat := DefaultSpace(), DefaultCatalog()
	type variant struct {
		name  string
		edit  func(*Space, *Catalog)
		equal bool // an edit that leaves the value unchanged
	}
	variants := []variant{
		{"MaxMachines", func(s *Space, _ *Catalog) { s.MaxMachines = 5 }, false},
		{"SMPSizes", func(s *Space, _ *Catalog) { s.SMPSizes = []int{2} }, false},
		{"CacheOptions", func(s *Space, _ *Catalog) { s.CacheOptions = []int64{512 << 10} }, false},
		{"MemoryOptions", func(s *Space, _ *Catalog) { s.MemoryOptions = []int64{64 << 20, 128 << 20} }, false},
		{"DeepOptions", func(s *Space, _ *Catalog) { s.DeepOptions = deepClockSpace().DeepOptions[:1] }, false},
		{"Networks", func(s *Space, _ *Catalog) { s.Networks = s.Networks[1:] }, false},
		{"ClockMHz", func(s *Space, _ *Catalog) { s.ClockMHz = 300 }, false},
		{"ClockOptions", func(s *Space, _ *Catalog) { s.ClockOptions = []float64{200, 300} }, false},
		{"WSBase", func(_ *Space, c *Catalog) { c.WSBase = 700 }, false},
		{"SMPBase", func(_ *Space, c *Catalog) { c.SMPBase = map[int]float64{2: 3000, 4: 11000} }, false},
		{"CacheUpgrade", func(_ *Space, c *Catalog) { c.CacheUpgrade = 30 }, false},
		{"MemoryPer32MB", func(_ *Space, c *Catalog) { c.MemoryPer32MB = 1500 }, false},
		{"NetPerNode", func(_ *Space, c *Catalog) { c.NetPerNode[machine.NetSwitch155] = 10 }, false},
		{"CPUPer100MHz", func(_ *Space, c *Catalog) { c.CPUPer100MHz = 5 }, false},
		{"DeepCachePerMB", func(_ *Space, c *Catalog) { c.DeepCachePerMB = 1 }, false},
		{"fresh copies", func(s *Space, c *Catalog) { *s, *c = DefaultSpace(), DefaultCatalog() }, true},
	}
	// sameSpace, sameCatalog, cloneSpace and cloneCatalog list the fields
	// by hand, and so does variants: a new field must be added to all of
	// them, or two values differing only in it would share one entry.
	if n := reflect.TypeOf(Space{}).NumField() + reflect.TypeOf(Catalog{}).NumField(); n != len(variants)-1 {
		t.Fatalf("Space and Catalog have %d fields, variants covers %d: add the new field to "+
			"sameSpace/sameCatalog, cloneSpace/cloneCatalog and this list", n, len(variants)-1)
	}
	for _, v := range variants {
		resetPricedMemo() // every variant is priced right after the base
		basePS := priced(base, baseCat)
		space, cat := cloneSpace(base), cloneCatalog(baseCat)
		v.edit(&space, &cat)
		if got := priced(space, cat) == basePS; got != v.equal {
			t.Errorf("%s: shares the base entry = %v, want %v", v.name, got, v.equal)
		}
		wantBest, wantAll, _ := enumOptimize(20000, wl, cat, space, core.Options{})
		best, all, err := Optimize(20000, wl, cat, space, core.Options{})
		if err != nil || !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(all, wantAll) {
			t.Errorf("%s: Optimize differs from the enumeration (err %v)", v.name, err)
		}
	}

	// In-place mutation of the caller's own slices and maps after the call
	// that created the entry.
	for _, mutate := range []func(*Space, *Catalog){
		func(s *Space, _ *Catalog) { s.MemoryOptions[0] = 256 << 20 },
		func(s *Space, _ *Catalog) { s.DeepOptions[0][1].Bytes = 2 << 20 },
		func(_ *Space, c *Catalog) { c.SMPBase[2] = 1000 },
	} {
		resetPricedMemo()
		space, cat := deepClockSpace(), DefaultCatalog()
		if _, _, err := Optimize(20000, wl, cat, space, core.Options{}); err != nil {
			t.Fatal(err)
		}
		mutate(&space, &cat)
		wantBest, wantAll, _ := enumOptimize(20000, wl, cat, space, core.Options{})
		best, all, err := Optimize(20000, wl, cat, space, core.Options{})
		if err != nil || !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(all, wantAll) {
			t.Errorf("after mutating the caller's space or catalog in place: Optimize differs from the enumeration (err %v)", err)
		}
	}
}

// TestPricedMemoKeepsLatest: the memo holds one entry, the space priced
// last; pricing another space replaces it.
func TestPricedMemoKeepsLatest(t *testing.T) {
	resetPricedMemo()
	cat := DefaultCatalog()
	space := func(n int) Space { s := DefaultSpace(); s.MaxMachines = n; return s }
	first := priced(space(1), cat)
	if priced(space(1), cat) != first {
		t.Fatal("the space priced last was enumerated again")
	}
	second := priced(space(2), cat)
	if second == first || priced(space(2), cat) != second {
		t.Fatal("a new space did not replace the memo entry")
	}
	if priced(space(1), cat) == first {
		t.Error("a replaced entry was still served")
	}
}

// BenchmarkPricedSpace measures the priced design space: "build" is the
// one-off enumeration, pricing, grouping and sort of DefaultSpace; "memo"
// is what every later search pays to find it.
func BenchmarkPricedSpace(b *testing.B) {
	cat, space := DefaultCatalog(), DefaultSpace()
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			space.enumeratePriced(cat)
		}
	})
	b.Run("memo", func(b *testing.B) {
		priced(space, cat)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			priced(space, cat)
		}
	})
}

package cost

// Branch-and-bound budget optimization: OptimizeBudgets answers the eq. 6
// question for a whole grid of budgets in one pass over a price-sorted
// enumeration, instead of re-evaluating the space per budget the way
// BudgetSweep does. Both read the same priced enumeration (priced.go).
//
// The search exploits two structural facts, both proven by the repository's
// property tests (internal/core/property_test.go):
//
//   - the feasible set only grows with the budget, so budgets processed in
//     ascending order share one frontier: each configuration is considered
//     exactly once, when it first becomes affordable, and the incumbent
//     winner carries over;
//   - E(Instr) — and therefore Seconds, at a fixed clock — is monotone
//     non-increasing in cache and memory capacity, so within a "structure
//     group" (same platform kind, machine count, processors, network, and
//     clock) the capacity-maximal member lower-bounds every member. A group
//     whose bound is strictly worse than the incumbent is pruned without
//     evaluating its members.
//
// Pruning uses strict inequality only: a group whose bound ties the
// incumbent is still evaluated, because the brute-force ranking breaks
// Seconds ties by price (and full ties by enumeration order), and a
// dominated-but-cheaper member can win such a tie — capacity plateaus are
// real (a footprint that fits in the smaller memory leaves E(Instr)
// unchanged and the cheaper configuration wins). The winners are therefore
// bit-identical to brute force; TestOptimizeBudgetsMatchesBruteForce holds
// the two searches together on randomized spaces.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"memhier/internal/core"
	"memhier/internal/machine"
)

// BudgetPoint is one budget of a pruned sweep: the eq. 6 winner at that
// spend level, bit-identical to what Optimize would return.
type BudgetPoint struct {
	Budget float64 `json:"budget"`
	Best   Scored  `json:"best"`
	// Candidates counts the configurations priced within the budget
	// (whether or not the search had to evaluate them).
	Candidates int `json:"candidates"`
}

// SweepStats accounts for the work of one OptimizeBudgets call; the
// benchmark suite and the /v1/sweep summary report it so pruning stays
// observable.
type SweepStats struct {
	// Configs is the enumeration size (priced configurations).
	Configs int `json:"configs"`
	// Evaluated counts model evaluations spent, bound evaluations
	// included. Brute force spends Candidates evaluations per budget;
	// the pruned search spends at most Configs across all budgets.
	Evaluated int `json:"evaluated"`
	// BoundEvals counts the evaluations used to establish group lower
	// bounds (a subset of Evaluated).
	BoundEvals int `json:"bound_evals"`
	// Pruned counts affordable configurations skipped because their
	// group's monotone lower bound was strictly worse than the incumbent.
	Pruned int `json:"pruned"`
}

// structureKey identifies a group of configurations that differ only along
// the monotone capacity axes (per-level cache bytes, memory bytes). The
// level signature — depth and per-level latencies — is part of the
// structure: capacity monotonicity only holds with latencies fixed.
type structureKey struct {
	kind   machine.PlatformKind
	n      int
	procs  int
	net    machine.NetworkKind
	clock  float64
	levels string
}

// levelSig folds a hierarchy's non-capacity shape into a comparable string.
// Every legacy one-level configuration maps to "", so spaces without
// DeepOptions group exactly as before.
func levelSig(cfg machine.Config) string {
	cl := cfg.CacheLevels()
	if len(cl) == 1 && cl[0].LatencyCycles == 0 {
		return ""
	}
	parts := make([]string, len(cl))
	for i, lv := range cl {
		parts[i] = strconv.FormatFloat(lv.LatencyCycles, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// dominatesCapacity reports whether b is at least a along every monotone
// capacity axis — each cache level's bytes and the memory bytes — and
// strictly above on one. Both configs must share a structure group, so the
// level counts match.
func dominatesCapacity(a, b machine.Config) bool {
	la, lb := a.CacheLevels(), b.CacheLevels()
	if len(la) != len(lb) || b.MemoryBytes < a.MemoryBytes {
		return false
	}
	strict := b.MemoryBytes > a.MemoryBytes
	for i := range la {
		if lb[i].Bytes < la[i].Bytes {
			return false
		}
		if lb[i].Bytes > la[i].Bytes {
			strict = true
		}
	}
	return strict
}

// enumeratePriced prices every configuration in the space. The result
// lists them by ascending cost (ties keep enumeration order, matching the
// stable brute-force ranking) and records the enumeration order beside
// it. Configurations the catalog cannot price are dropped, exactly as
// Optimize skips them. It also maps each structure group to its
// capacity-maximal members — the members no other member dominates
// componentwise in (cache, memory) — whose evaluations lower-bound the
// whole group. Callers reach it through priced, which builds it once per
// (space, catalog).
func (s Space) enumeratePriced(cat Catalog) *pricedSpace {
	var pcs []pricedConfig
	groups := make(map[structureKey]int)
	var members [][]int // group → indices into pcs (pre-sort identity)
	for i, cfg := range s.Enumerate() {
		price, err := cat.ClusterCost(cfg)
		if err != nil {
			continue
		}
		key := structureKey{kind: cfg.Kind, n: cfg.N, procs: cfg.Procs, net: cfg.Net, clock: cfg.ClockMHz, levels: levelSig(cfg)}
		g, ok := groups[key]
		if !ok {
			g = len(members)
			groups[key] = g
			members = append(members, nil)
		}
		members[g] = append(members[g], len(pcs))
		pcs = append(pcs, pricedConfig{cfg: cfg, cost: price, group: g, index: i})
	}
	// Reduce each group to its maximal members. Every member is dominated
	// by at least one maximal member, so min(Seconds) over the maximal set
	// bounds the group from below.
	maxima := make([][]int, len(members))
	for g, idxs := range members {
		for _, i := range idxs {
			dominated := false
			for _, j := range idxs {
				if i == j {
					continue
				}
				if dominatesCapacity(pcs[i].cfg, pcs[j].cfg) {
					dominated = true
					break
				}
			}
			if !dominated {
				maxima[g] = append(maxima[g], i)
			}
		}
	}
	// Price-sorted frontier. The sort permutes pcs, so maxima must be
	// remapped through the permutation; the inverse permutation is the
	// enumeration order.
	perm := make([]int, len(pcs))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return pcs[perm[a]].cost < pcs[perm[b]].cost })
	sorted := make([]pricedConfig, len(pcs))
	where := make([]int, len(pcs)) // old index → new index
	for newIdx, oldIdx := range perm {
		sorted[newIdx] = pcs[oldIdx]
		where[oldIdx] = newIdx
	}
	for g := range maxima {
		for k, oldIdx := range maxima[g] {
			maxima[g][k] = where[oldIdx]
		}
	}
	return &pricedSpace{byCost: sorted, maxima: maxima, byEnum: where}
}

// OptimizeBudgets solves eq. 6 for every budget in one pass: budgets are
// processed in ascending order over the price-sorted enumeration, each
// configuration is evaluated at most once, and whole structure groups are
// pruned when their monotone lower bound cannot beat the incumbent. The
// returned winners are bit-identical to running Optimize per budget
// (BudgetSweep, the brute-force fallback); budgets with no feasible
// configuration are skipped, exactly as BudgetSweep skips them.
func OptimizeBudgets(budgets []float64, wl core.Workload, cat Catalog, space Space, opts core.Options) ([]BudgetPoint, SweepStats, error) {
	if len(budgets) == 0 {
		return nil, SweepStats{}, fmt.Errorf("cost: empty budget list")
	}
	ps := priced(space, cat)
	pcs, maxima := ps.byCost, ps.maxima
	stats := SweepStats{Configs: len(pcs)}

	type evalOutcome struct {
		done    bool
		ok      bool
		eInstr  float64
		seconds float64
	}
	evals := make([]evalOutcome, len(pcs))
	eval := func(i int) evalOutcome {
		if evals[i].done {
			return evals[i]
		}
		stats.Evaluated++
		o := evalOutcome{done: true}
		if res, err := core.Evaluate(pcs[i].cfg, wl, opts); err == nil {
			o.ok = true
			o.eInstr = res.EInstr
			o.seconds = res.Seconds
		}
		evals[i] = o
		return o
	}

	// Group lower bounds, established lazily: min Seconds over the group's
	// capacity-maximal members. A failing maximal member disables the bound
	// (-Inf) rather than risking an unsound prune.
	bounds := make([]float64, len(maxima))
	haveBound := make([]bool, len(maxima))
	bound := func(g int) float64 {
		if haveBound[g] {
			return bounds[g]
		}
		lb := math.Inf(1)
		for _, mi := range maxima[g] {
			wasDone := evals[mi].done
			o := eval(mi)
			if !wasDone {
				stats.BoundEvals++
			}
			if !o.ok {
				lb = math.Inf(-1)
				break
			}
			if o.seconds < lb {
				lb = o.seconds
			}
		}
		haveBound[g] = true
		bounds[g] = lb
		return lb
	}

	sorted := append([]float64(nil), budgets...)
	sort.Float64s(sorted)

	var out []BudgetPoint
	var best Scored
	haveBest := false
	bestIdx := -1 // enumeration index of the incumbent, for full-tie breaks
	i := 0
	for _, b := range sorted {
		if b <= 0 {
			continue // Optimize rejects non-positive budgets; BudgetSweep skips them
		}
		for i < len(pcs) && pcs[i].cost <= b {
			pc := pcs[i]
			i++
			if haveBest && bound(pc.group) > best.Seconds {
				stats.Pruned++
				continue
			}
			o := eval(i - 1)
			if !o.ok {
				continue
			}
			// The incumbent is the lexicographic minimum under
			// (Seconds, Cost, enumeration order) — exactly the head of
			// Optimize's stable ranking.
			better := o.seconds < best.Seconds ||
				(o.seconds == best.Seconds &&
					(pc.cost < best.Cost || (pc.cost == best.Cost && pc.index < bestIdx)))
			if !haveBest || better {
				best = Scored{Config: pc.cfg, Cost: pc.cost, EInstr: o.eInstr, Seconds: o.seconds}
				bestIdx = pc.index
				haveBest = true
			}
		}
		if haveBest {
			pt := BudgetPoint{Budget: b, Best: best, Candidates: i}
			pt.Best.Config = ownConfig(best.Config)
			out = append(out, pt)
		}
	}
	if len(out) == 0 {
		return nil, stats, errors.New("cost: no budget in the sweep is feasible")
	}
	return out, stats, nil
}

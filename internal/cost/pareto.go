package cost

import (
	"sort"

	"memhier/internal/core"
)

// ParetoFront returns the non-dominated configurations of the design space
// for a workload: every returned point is strictly cheaper than anything
// faster and strictly faster than anything cheaper. The front is sorted by
// ascending cost (hence descending E(Instr)) and is what a buyer actually
// chooses from — the cost/performance frontier behind the paper's eq. 6.
func ParetoFront(wl core.Workload, cat Catalog, space Space, opts core.Options) ([]Scored, error) {
	ps := priced(space, cat)
	var all []Scored
	for _, k := range ps.byEnum {
		pc := &ps.byCost[k]
		res, err := core.Evaluate(pc.cfg, wl, opts)
		if err != nil {
			continue
		}
		all = append(all, Scored{Config: ownConfig(pc.cfg), Cost: pc.cost, EInstr: res.EInstr, Seconds: res.Seconds})
	}
	if len(all) == 0 {
		return nil, ErrNoFeasible
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Cost != all[j].Cost {
			return all[i].Cost < all[j].Cost
		}
		return all[i].Seconds < all[j].Seconds
	})
	var front []Scored
	bestS := 0.0
	for _, s := range all {
		if len(front) == 0 || s.Seconds < bestS {
			// Same-cost duplicates: keep only the fastest (first by sort).
			if len(front) > 0 && front[len(front)-1].Cost == s.Cost {
				continue
			}
			front = append(front, s)
			bestS = s.Seconds
		}
	}
	return front, nil
}

// ErrNoFeasible reports an empty design space.
var ErrNoFeasible = errNoFeasible{}

type errNoFeasible struct{}

func (errNoFeasible) Error() string { return "cost: no evaluable configuration in the space" }

// KneePoint returns the front point with the best marginal-utility balance:
// the one maximizing the normalized distance from the segment joining the
// cheapest and fastest extremes — the usual "knee" heuristic for picking a
// budget when none is imposed.
func KneePoint(front []Scored) (Scored, error) {
	if len(front) == 0 {
		return Scored{}, ErrNoFeasible
	}
	if len(front) <= 2 {
		return front[0], nil
	}
	first, last := front[0], front[len(front)-1]
	dc := last.Cost - first.Cost
	de := last.Seconds - first.Seconds // negative: time falls along the front
	best, bestDist := front[0], -1.0
	for _, p := range front {
		// Perpendicular distance from the (cost, E) line, normalized axes.
		x := (p.Cost - first.Cost) / nonzero(dc)
		y := (p.Seconds - first.Seconds) / nonzero(de)
		d := x - y // chord runs x=y in normalized space; knee maximizes y-lag
		if d > bestDist {
			bestDist = d
			best = p
		}
	}
	return best, nil
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

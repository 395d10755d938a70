package cfg

import "go/ast"

// A Flow describes one forward dataflow analysis over a Graph: the fact at
// function entry, the join applied where paths merge, and the transfer
// applied to each block leaf. Facts must be treated as immutable by
// Transfer and Join (return fresh values), or the fixpoint will corrupt
// shared state.
type Flow[F any] struct {
	// Entry is the fact holding at function entry.
	Entry F
	// Join merges the facts of two predecessors. Intersection makes a
	// must-analysis, union a may-analysis.
	Join func(a, b F) F
	// Equal reports fact equality; the fixpoint stops when every block's
	// entry fact is stable.
	Equal func(a, b F) bool
	// Transfer pushes a fact through one leaf node.
	Transfer func(n ast.Node, in F) F
}

// Forward runs the analysis to fixpoint and returns each reachable
// block's entry fact. Unreachable blocks do not appear in the result: they
// contribute no facts, so a must-analysis is not weakened by paths that
// cannot execute.
func Forward[F any](g *Graph, fl Flow[F]) map[*Block]F {
	in := map[*Block]F{g.Entry: fl.Entry}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := fl.blockOut(blk, in[blk])
		for _, s := range blk.Succs {
			next, seen := in[s]
			if !seen {
				next = out
			} else {
				next = fl.Join(next, out)
			}
			if !seen || !fl.Equal(next, in[s]) {
				in[s] = next
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// blockOut folds Transfer over the block's leaves.
func (fl Flow[F]) blockOut(blk *Block, fact F) F {
	for _, n := range blk.Nodes {
		fact = fl.Transfer(n, fact)
	}
	return fact
}

// Visit replays the converged analysis, calling visit on every leaf of
// every reachable block with the fact holding immediately before that
// leaf executes. This is how an analyzer turns block-level fixpoint facts
// into per-statement checks.
func Visit[F any](g *Graph, fl Flow[F], visit func(n ast.Node, before F)) {
	in := Forward(g, fl)
	for _, blk := range g.Blocks {
		fact, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		for _, n := range blk.Nodes {
			visit(n, fact)
			fact = fl.Transfer(n, fact)
		}
	}
}

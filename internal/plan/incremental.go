package plan

import (
	"slices"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
)

// UpdateStats quantifies the locality of an incremental re-optimization
// (Corollary 1): how much of the old plan survived and how much state had
// to be pushed back into the network.
type UpdateStats struct {
	// EdgesTotal is the number of edges in the new instance.
	EdgesTotal int
	// EdgesReused is the number of edges whose single-edge inputs were
	// unchanged and whose old solutions were carried over verbatim.
	EdgesReused int
	// EdgesSolved counts fresh single-edge optimizations: the edges with
	// new or changed inputs.
	EdgesSolved int
	// EdgesChangedSolution counts edges whose final solution differs from
	// the old plan (including edges absent from one of the two plans) —
	// the node-state updates that must be disseminated.
	EdgesChangedSolution int
}

// Reoptimize computes the optimal plan for inst while reusing every
// single-edge solution of old whose inputs (the pairs crossing the edge
// and the unit weights of their endpoints) are unchanged. Corollary 1
// guarantees the reused solutions remain part of the new optimum, so the
// result is identical to Optimize(inst) — tests assert this — at a
// fraction of the work.
func Reoptimize(old *Plan, inst *Instance) (*Plan, *UpdateStats, error) {
	return ReoptimizeWithPrices(old, inst, nil)
}

// ReoptimizeWithPrices is Reoptimize under per-node energy prices (see
// Plan.Prices): the new plan is identical to OptimizeWithPrices(inst,
// prices). An old solution is only reused when, additionally, every
// endpoint of its edge has the same effective price in both plans — a node
// whose price moved re-poses its edges' cover problems.
//
// Only edges whose inputs changed (see changedEdges) are solved again;
// the two edge lists are matched by one merge, and every other solution
// is carried over by reference (nothing changes a solution once it is
// built). The Theorem 1 availability check and the coverage check still
// run over the whole plan, and a violation is an error as in Optimize.
func ReoptimizeWithPrices(old *Plan, inst *Instance, prices map[graph.NodeID]int64) (*Plan, *UpdateStats, error) {
	p := &Plan{Inst: inst, Method: MethodOptimal, Sol: make([]*EdgeSolution, len(inst.EdgeList)), Prices: prices}
	stats := &UpdateStats{EdgesTotal: len(inst.EdgeList)}
	var prevOf []int
	var vanished int
	var changed []bool
	if old != nil {
		prevOf, vanished = matchEdges(old.Inst.EdgeList, inst.EdgeList)
		changed = changedEdges(old, inst, prices, prevOf)
	}
	var sc *edgeScratch
	for i := range inst.EdgeList {
		if old != nil && !changed[i] {
			if j := prevOf[i]; j < len(old.Sol) {
				if prev := old.Sol[j]; prev != nil {
					// Carry the old solution over by reference, so a
					// mostly-unchanged reoptimization copies nothing.
					p.Sol[i] = prev
					stats.EdgesReused++
					continue
				}
			}
		}
		if sc == nil {
			sc = getEdgeScratch()
			defer putEdgeScratch(sc)
		}
		sol, err := solveEdge(inst, i, prices, sc)
		if err != nil {
			return nil, nil, err
		}
		p.Sol[i] = sol
		stats.EdgesSolved++
	}
	if err := p.checkTheorem1(); err != nil {
		return nil, nil, err
	}
	if err := p.validateCover(); err != nil {
		return nil, nil, err
	}
	if old != nil {
		stats.EdgesChangedSolution = countChangedSolutions(old, p, prevOf, vanished)
	} else {
		stats.EdgesChangedSolution = len(inst.EdgeList)
	}
	return p, stats, nil
}

// matchEdges merges two sorted edge lists: prevOf[i] is the position of
// b[i] in a, or -1, and vanished counts the edges of a missing from b.
func matchEdges(a, b []routing.Edge) (prevOf []int, vanished int) {
	prevOf = make([]int, len(b))
	j := 0
	for i, e := range b {
		for j < len(a) && routing.CompareEdges(a[j], e) < 0 {
			j++
			vanished++
		}
		if j < len(a) && a[j] == e {
			prevOf[i] = j
			j++
		} else {
			prevOf[i] = -1
		}
	}
	return prevOf, vanished + len(a) - j
}

// changedEdges marks the edges of inst that pose a different single-edge
// problem than in old: edges new to inst, edges whose pair rows differ
// (a pair crossing them is new, gone or rerouted), and edges with a pair
// whose destination's record width or an endpoint's effective price
// moved. Every other edge keeps its inputs, so by Corollary 1 its old
// solution stays optimal. Rows are compared as contiguous slices, so the
// common case costs no hashing.
func changedEdges(old *Plan, inst *Instance, prices map[graph.NodeID]int64, prevOf []int) []bool {
	var widthMoved map[graph.NodeID]bool
	for d, sp := range inst.SpecByDest {
		if osp, ok := old.Inst.SpecByDest[d]; ok && agg.UnitBytes(osp.Func) != agg.UnitBytes(sp.Func) {
			if widthMoved == nil {
				widthMoved = make(map[graph.NodeID]bool)
			}
			widthMoved[d] = true
		}
	}
	var priceMoved map[graph.NodeID]bool
	for _, m := range []map[graph.NodeID]int64{old.Prices, prices} {
		for n := range m {
			if priceOf(old.Prices, n) != priceOf(prices, n) {
				if priceMoved == nil {
					priceMoved = make(map[graph.NodeID]bool)
				}
				priceMoved[n] = true
			}
		}
	}
	changed := make([]bool, len(inst.EdgeList))
	for i, j := range prevOf {
		pairs := inst.Pairs(i)
		if j < 0 || !slices.Equal(old.Inst.Pairs(j), pairs) {
			changed[i] = true
			continue
		}
		if widthMoved == nil && priceMoved == nil {
			continue
		}
		for _, pr := range pairs {
			if widthMoved[pr.Dest] || priceMoved[pr.Source] || priceMoved[pr.Dest] {
				changed[i] = true
				break
			}
		}
	}
	return changed
}

func sameSolution(a, b *EdgeSolution) bool {
	if a == b {
		return true // reused by reference during Reoptimize
	}
	if len(a.Raw) != len(b.Raw) || len(a.Agg) != len(b.Agg) {
		return false
	}
	for k := range a.Raw {
		if !b.Raw[k] {
			return false
		}
	}
	for k := range a.Agg {
		if !b.Agg[k] {
			return false
		}
	}
	return true
}

// countChangedSolutions counts the edges whose solution differs between
// old and new_ (edges present in only one plan included), given the edge
// match from matchEdges. A solution carried over by reference is unchanged
// at the cost of a pointer comparison, so only the solved and vanished
// edges do real work.
func countChangedSolutions(old, new_ *Plan, prevOf []int, vanished int) int {
	changed := vanished // a vanished edge's nodes must drop state
	for i, sol := range new_.Sol {
		j := prevOf[i]
		if j < 0 || j >= len(old.Sol) || old.Sol[j] == nil || !sameSolution(old.Sol[j], sol) {
			changed++
		}
	}
	return changed
}

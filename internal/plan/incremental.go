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
// the two edge lists are matched by one merge, and every other edge's
// cover row is copied from old (its pair row, and so its end row, is the
// same). The Theorem 1 availability check and the coverage check still
// run over the whole plan, and a violation is an error as in Optimize.
func ReoptimizeWithPrices(old *Plan, inst *Instance, prices map[graph.NodeID]int64) (*Plan, *UpdateStats, error) {
	p := NewPlan(inst, MethodOptimal)
	p.Prices = prices
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
			copy(p.edgeCover(i), old.edgeCover(prevOf[i]))
			stats.EdgesReused++
			continue
		}
		if sc == nil {
			sc = getEdgeScratch()
			defer putEdgeScratch(sc)
		}
		if err := solveEdge(inst, i, prices, sc, p.Row(i)); err != nil {
			return nil, nil, err
		}
		stats.EdgesSolved++
	}
	if err := p.checkTheorem1(); err != nil {
		return nil, nil, err
	}
	if err := p.validateCover(); err != nil {
		return nil, nil, err
	}
	if old != nil {
		stats.EdgesChangedSolution = countChangedSolutions(old, p, prevOf, changed, vanished)
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

// sameSelection reports whether the nodes flagged in as and bs are the
// same: both node lists are ascending, so this is a merge.
func sameSelection(an []graph.NodeID, as []bool, bn []graph.NodeID, bs []bool) bool {
	i, j := 0, 0
	for {
		for i < len(an) && !as[i] {
			i++
		}
		for j < len(bn) && !bs[j] {
			j++
		}
		if i == len(an) || j == len(bn) {
			return i == len(an) && j == len(bn)
		}
		if an[i] != bn[j] {
			return false
		}
		i++
		j++
	}
}

// sameRow reports whether two edge decisions send the same raw sources and
// the same records.
func sameRow(a, b Row) bool {
	return sameSelection(a.Sources, a.Raw, b.Sources, b.Raw) && sameSelection(a.Dests, a.Agg, b.Dests, b.Agg)
}

// countChangedSolutions counts the edges whose decision differs between
// old and new_ (edges present in only one plan included), given the edge
// match from matchEdges. An edge whose inputs did not change had its row
// copied, so only the solved edges are compared.
func countChangedSolutions(old, new_ *Plan, prevOf []int, inputsChanged []bool, vanished int) int {
	changed := vanished // a vanished edge's nodes must drop state
	for i, j := range prevOf {
		if j < 0 || inputsChanged[i] && !sameRow(old.Row(j), new_.Row(i)) {
			changed++
		}
	}
	return changed
}

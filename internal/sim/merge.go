package sim

import (
	"fmt"

	"m2m/internal/graph"
)

// buildMessages groups units into physical messages and lays them out in
// processing order. Units travelling the same edge are eligible for
// merging (Section 3); a merge is kept only if the message-level wait-for
// graph stays acyclic. The paper reports that the greedy merge collapses
// every edge to a single message in all its experiments; the all-at-once
// attempt below succeeds in exactly those cases and the pairwise fallback
// (splitCycles) handles the rare cyclic ones.
func (e *Engine) buildMessages(cx *construction, merge bool) error {
	// One message per unit, or when merging the ideal layout: one message
	// per edge, in EdgeList order, which is also the order of the units.
	// Either way message ids ascend with their first unit.
	assign := make([]int, len(e.units)) // unit -> message id
	nMsgs := 0
	for ui := range e.units {
		if ui > 0 && (!merge || cx.unitEdge[ui] != cx.unitEdge[ui-1]) {
			nMsgs++
		}
		assign[ui] = nMsgs
	}
	if len(e.units) > 0 {
		nMsgs++
	}
	perm, ok := e.messageGraph(assign, nMsgs).TopoSort()
	if !ok && merge {
		nMsgs = e.splitCycles(cx, assign, nMsgs)
		perm, ok = e.messageGraph(assign, nMsgs).TopoSort()
	}
	if !ok {
		return fmt.Errorf("sim: message wait-for cycle survived merging")
	}
	e.orderMessages(messagesFromAssign(assign, nMsgs), perm)
	return nil
}

// splitCycles is the fallback for the rare wait-for cycles (the paper:
// "such situations seem to be quite rare"): it locates the cyclic core of
// the merged message graph, splits exactly those edges back into per-unit
// messages (always feasible — the unit-level graph is acyclic per Theorem
// 2), then greedily re-merges pairs within just those edges. It rewrites
// assign in place, numbering messages by first unit again, and returns the
// new message count.
func (e *Engine) splitCycles(cx *construction, assign []int, nMsgs int) int {
	edgeUnits := func(ei int32) []int {
		return assign[cx.edgeOff[ei]:cx.edgeOff[ei+1]]
	}
	for iter := 0; ; iter++ {
		core := e.messageGraph(assign, nMsgs).CyclicCore()
		if len(core) == 0 {
			break
		}
		inCore := make([]bool, nMsgs)
		for _, m := range core {
			inCore[m] = true
		}
		var brokenEdges []int32
		broken := make([]bool, len(e.Plan.Inst.EdgeList))
		for ui, m := range assign {
			if ei := cx.unitEdge[ui]; inCore[m] && !broken[ei] {
				broken[ei] = true
				brokenEdges = append(brokenEdges, ei)
			}
		}
		for _, ei := range brokenEdges {
			ms := edgeUnits(ei)
			for i := range ms {
				ms[i] = nMsgs
				nMsgs++
			}
		}
		if !e.messageGraphAcyclic(assign, nMsgs) {
			if iter > len(e.units) {
				panic("sim: merge fallback failed to converge") // unreachable: fully split is acyclic
			}
			continue
		}
		// Re-merge greedily within the broken edges only: accumulate each
		// unit into the current message unless a path between the two
		// messages (necessarily through other messages — units of one edge
		// never depend on each other) would close a cycle.
		for _, ei := range brokenEdges {
			ms := edgeUnits(ei)
			mg := e.messageGraph(assign, nMsgs)
			cur := ms[0]
			for i := 1; i < len(ms); i++ {
				b := ms[i]
				if b == cur {
					continue
				}
				if mg.Reaches(cur, b) || mg.Reaches(b, cur) {
					cur = b // start a new message from here
					continue
				}
				ms[i] = cur
				mg = e.messageGraph(assign, nMsgs)
			}
		}
		break
	}
	// Compact message ids in order of first unit.
	remap := make([]int, nMsgs)
	for i := range remap {
		remap[i] = -1
	}
	nMsgs = 0
	for ui, m := range assign {
		if remap[m] < 0 {
			remap[m] = nMsgs
			nMsgs++
		}
		assign[ui] = remap[m]
	}
	return nMsgs
}

// orderMessages lays msgs out in the topological order perm of the message
// wait-for DAG and rebuilds e.order message-contiguously: every message's
// units appear consecutively (ascending unit index), and a message appears
// only after every message it waits for. Units of one edge never depend on
// each other, so the flattening is a valid unit order; Run and RunLossy
// share it, which is what makes a fault-free lossy round byte-identical to
// a plain one.
//
// perm comes from Digraph.TopoSort, the Kahn order that emits the ready
// message with the smallest id first. Message ids ascend with their first
// unit, so among ready messages the one whose first unit has the smallest
// index goes first.
func (e *Engine) orderMessages(msgs [][]int, perm []int) {
	for m := 1; m < len(msgs); m++ {
		if msgs[m][0] <= msgs[m-1][0] {
			panic("sim: messages not numbered by first unit") // unreachable: buildMessages numbers them so
		}
	}
	e.messages = make([][]int, 0, len(msgs))
	e.order = make([]int, 0, len(e.units))
	for _, m := range perm {
		e.messages = append(e.messages, msgs[m])
		e.order = append(e.order, msgs[m]...)
	}
}

// messageGraph lifts the unit wait-for relation onto messages. Self-arcs
// cannot arise (no unit depends on a unit of its own edge) but are
// skipped defensively.
func (e *Engine) messageGraph(assign []int, nMsgs int) *graph.Digraph {
	d := graph.NewDigraph(nMsgs)
	for u, ds := range e.deps {
		for _, dep := range ds {
			if assign[dep] != assign[u] {
				d.AddArc(assign[dep], assign[u])
			}
		}
	}
	return d
}

// messageGraphAcyclic checks whether the message-level wait-for relation
// is a DAG.
func (e *Engine) messageGraphAcyclic(assign []int, nMsgs int) bool {
	return !e.messageGraph(assign, nMsgs).HasCycle()
}

// messagesFromAssign groups units by message id, each message's units
// ascending, dropping ids no unit carries. The messages share one backing
// array.
func messagesFromAssign(assign []int, nMsgs int) [][]int {
	off := make([]int, nMsgs+1)
	for _, m := range assign {
		off[m+1]++
	}
	for m := 0; m < nMsgs; m++ {
		off[m+1] += off[m]
	}
	units := make([]int, len(assign))
	next := append([]int(nil), off[:nMsgs]...)
	for ui, m := range assign {
		units[next[m]] = ui
		next[m]++
	}
	msgs := make([][]int, 0, nMsgs)
	for m := 0; m < nMsgs; m++ {
		if off[m] < off[m+1] {
			msgs = append(msgs, units[off[m]:off[m+1]:off[m+1]])
		}
	}
	return msgs
}

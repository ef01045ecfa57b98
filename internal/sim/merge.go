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
	assign := make([]int32, len(e.units)) // unit -> message id
	nMsgs := 0
	for ui := range e.units {
		if ui > 0 && (!merge || cx.unitEdge[ui] != cx.unitEdge[ui-1]) {
			nMsgs++
		}
		assign[ui] = int32(nMsgs)
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
	e.orderMessages(assign, nMsgs, perm)
	return nil
}

// splitCycles is the fallback for the rare wait-for cycles (the paper:
// "such situations seem to be quite rare"): it locates the cyclic core of
// the merged message graph, splits exactly those edges back into per-unit
// messages (always feasible — the unit-level graph is acyclic per Theorem
// 2), then greedily re-merges pairs within just those edges. It rewrites
// assign in place, numbering messages by first unit again, and returns the
// new message count.
func (e *Engine) splitCycles(cx *construction, assign []int32, nMsgs int) int {
	edgeUnits := func(ei int32) []int32 {
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
				ms[i] = int32(nMsgs)
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
				if mg.Reaches(int(cur), int(b)) || mg.Reaches(int(b), int(cur)) {
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
	remap := make([]int32, nMsgs)
	for i := range remap {
		remap[i] = -1
	}
	nMsgs = 0
	for ui, m := range assign {
		if remap[m] < 0 {
			remap[m] = int32(nMsgs)
			nMsgs++
		}
		assign[ui] = remap[m]
	}
	return nMsgs
}

// orderMessages lays the messages of assign (unit -> message id) out in
// the topological order perm of the message wait-for DAG and builds
// e.order message-contiguously: every message's units appear
// consecutively (ascending unit index), and a message appears only after
// every message it waits for. Each message is its run of e.order. Units
// of one edge never depend on each other, so the flattening is a valid
// unit order; Run and RunLossy share it, which is what makes a fault-free
// lossy round byte-identical to a plain one.
//
// perm comes from Digraph.TopoSort, the Kahn order that emits the ready
// message with the smallest id first. Message ids ascend with their first
// unit, so among ready messages the one whose first unit has the smallest
// index goes first.
func (e *Engine) orderMessages(assign []int32, nMsgs int, perm []int) {
	at := make([]int32, nMsgs) // message -> its size, then its next slot in e.order
	next := int32(0)           // the id the next message to start must have
	for _, m := range assign {
		if m > next {
			panic("sim: messages not numbered by first unit") // unreachable: buildMessages numbers them so
		}
		if m == next {
			next++
		}
		at[m]++
	}
	e.messages = make([][]int, len(perm))
	e.order = make([]int, len(assign))
	pos := int32(0)
	for i, m := range perm {
		n := at[m]
		e.messages[i] = e.order[pos : pos+n : pos+n]
		at[m] = pos
		pos += n
	}
	for ui, m := range assign {
		e.order[at[m]] = ui
		at[m]++
	}
}

// messageGraph lifts the unit wait-for relation onto messages, one arc per
// unit dependency that crosses messages (repeats are harmless: the
// digraph's queries depend only on the set of arcs). Self-arcs cannot
// arise (no unit depends on a unit of its own edge) but are skipped
// defensively.
func (e *Engine) messageGraph(assign []int32, nMsgs int) *graph.Digraph {
	n := 0
	for _, ds := range e.deps {
		n += len(ds)
	}
	arcs := make([]graph.Arc, 0, n)
	for u, ds := range e.deps {
		for _, dep := range ds {
			if assign[dep] != assign[u] {
				arcs = append(arcs, graph.Arc{From: assign[dep], To: assign[u]})
			}
		}
	}
	return graph.NewDigraph(nMsgs, arcs)
}

// messageGraphAcyclic checks whether the message-level wait-for relation
// is a DAG.
func (e *Engine) messageGraphAcyclic(assign []int32, nMsgs int) bool {
	return !e.messageGraph(assign, nMsgs).HasCycle()
}

// Package distopt realizes the paper's divide-and-conquer claim
// (Section 2.3): because Theorem 1 makes single-edge optima mutually
// consistent, "potentially, this optimization can be carried out by the
// individual nodes themselves inside the network."
//
// The package simulates exactly that. A setup phase floods each pair's
// interest along its canonical path — one setup unit per (pair, edge) —
// so that every node learns precisely the ∼_e relation of its outgoing
// edges and each destination's record size. Each node then solves its own
// edges' weighted bipartite vertex cover problems locally, with the same
// canonical tiebreak as everyone else. No node ever sees the global
// workload, yet the assembled plan is bit-for-bit the centralized optimum
// (tests assert this).
package distopt

import (
	"fmt"
	"slices"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/vcover"
)

// pairInfo is what a setup message teaches a node about one pair crossing
// one of its out-edges.
type pairInfo struct {
	source, dest graph.NodeID
	recordBytes  int // the destination's partial record unit size
}

// node is the in-network optimizer state of one sensor node.
type node struct {
	id graph.NodeID
	// outPairs collects, per outgoing edge, the pairs announced by setup
	// messages.
	outPairs map[routing.Edge][]pairInfo
}

// SetupCost reports the communication spent teaching nodes their local
// problems.
type SetupCost struct {
	// Units is the number of (pair, edge) setup units carried.
	Units int
	// Messages is the number of physical setup messages (units sharing an
	// edge batch into one message, as data units do).
	Messages int
	// Bytes is the total setup payload: each unit names the pair (2+2) and
	// the record size (1).
	Bytes int
	// EnergyJ prices the setup messages on the radio model.
	EnergyJ float64
}

const setupUnitBytes = 2 + 2 + 1

// Result is the outcome of a distributed optimization.
type Result struct {
	Plan  *plan.Plan
	Setup SetupCost
	// NodesSolving is how many nodes had at least one edge to solve.
	NodesSolving int
	// MaxEdgeProblems is the largest number of single-edge problems any
	// one node solved (the per-node computational load).
	MaxEdgeProblems int
}

// Optimize runs the distributed protocol over a resolved instance.
func Optimize(inst *plan.Instance, model radio.Model) (*Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}

	// --- Setup phase -----------------------------------------------------
	// Each pair's interest travels its path; every edge it crosses carries
	// one setup unit, delivered to the edge's tail (the solver of that
	// edge). Batched per edge like data messages.
	nodes := make(map[graph.NodeID]*node)
	getNode := func(id graph.NodeID) *node {
		n, ok := nodes[id]
		if !ok {
			n = &node{id: id, outPairs: make(map[routing.Edge][]pairInfo)}
			nodes[id] = n
		}
		return n
	}
	res := &Result{}
	for i, e := range inst.EdgeList {
		pairs := inst.Pairs(i)
		if len(pairs) == 0 {
			continue
		}
		tail := getNode(e.From)
		for _, pr := range pairs {
			tail.outPairs[e] = append(tail.outPairs[e], pairInfo{
				source:      pr.Source,
				dest:        pr.Dest,
				recordBytes: agg.UnitBytes(inst.SpecByDest[pr.Dest].Func),
			})
			res.Setup.Units++
		}
		body := len(pairs) * setupUnitBytes
		res.Setup.Bytes += body
		res.Setup.Messages++
		res.Setup.EnergyJ += model.UnicastJoules(body)
	}

	// --- Local solving ---------------------------------------------------
	// Every node independently reduces each of its out-edges to a vertex
	// cover with the global key scheme (2·node for the source role,
	// 2·node+1 for the destination role) — the consistent tiebreak
	// Theorem 1 requires.
	p := plan.NewPlan(inst, plan.MethodOptimal)
	var ids []graph.NodeID
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := nodes[id]
		if len(n.outPairs) > 0 {
			res.NodesSolving++
			if len(n.outPairs) > res.MaxEdgeProblems {
				res.MaxEdgeProblems = len(n.outPairs)
			}
		}
		for e, infos := range n.outPairs {
			if err := solveLocal(infos, p.Row(inst.EdgeIndex(e))); err != nil {
				return nil, fmt.Errorf("distopt: node %d edge %v: %w", id, e, err)
			}
		}
	}

	// Consistency: Theorem 1 promises the local optima already agree when
	// the routing restrictions hold; Validate is the distributed
	// algorithm's self-check. (Repair would require non-local coordination
	// and is intentionally not part of the in-network protocol.)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("distopt: local optima inconsistent (router violates sharing): %w", err)
	}
	res.Plan = p
	return res, nil
}

// solveLocal solves one edge's cover from the node's local pair table
// into the edge's row of the assembled plan. The node lists its sources
// and destinations ascending, as the row does.
func solveLocal(infos []pairInfo, row plan.Row) error {
	srcIdx := make(map[graph.NodeID]int)
	dstIdx := make(map[graph.NodeID]int)
	prob := &vcover.Problem{}
	var srcs, dsts []graph.NodeID
	for _, pi := range infos {
		if _, ok := srcIdx[pi.source]; !ok {
			srcIdx[pi.source] = -1
			srcs = append(srcs, pi.source)
		}
		if _, ok := dstIdx[pi.dest]; !ok {
			dstIdx[pi.dest] = -1
			dsts = append(dsts, pi.dest)
		}
	}
	slices.Sort(srcs)
	slices.Sort(dsts)
	if !slices.Equal(srcs, row.Sources) || !slices.Equal(dsts, row.Dests) {
		return fmt.Errorf("local view %v→%v differs from the instance's %v→%v", srcs, dsts, row.Sources, row.Dests)
	}
	for i, s := range srcs {
		srcIdx[s] = i
		prob.U = append(prob.U, vcover.Vertex{Key: int(s) * 2, Weight: int64(agg.RawUnitBytes)})
	}
	recBytes := make(map[graph.NodeID]int)
	for _, pi := range infos {
		recBytes[pi.dest] = pi.recordBytes
	}
	for j, d := range dsts {
		dstIdx[d] = j
		prob.V = append(prob.V, vcover.Vertex{Key: int(d)*2 + 1, Weight: int64(recBytes[d])})
	}
	seen := make(map[[2]int]bool)
	for _, pi := range infos {
		k := [2]int{srcIdx[pi.source], dstIdx[pi.dest]}
		if !seen[k] {
			seen[k] = true
			prob.Edges = append(prob.Edges, k)
		}
	}
	return vcover.Solve(prob, &vcover.Solution{InU: row.Raw, InV: row.Agg})
}

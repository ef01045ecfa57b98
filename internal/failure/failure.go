// Package failure implements the failure-handling machinery of Section 3:
// graph surgery for permanent link and node failures (after which the
// planner re-optimizes incrementally per Corollary 1), and route-around
// cost analysis for transient failures under milestone routing (the
// communication layer is free to detour between milestones without
// touching the plan).
package failure

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
)

// RemoveLink returns a copy of g without the undirected link u—v.
func RemoveLink(g *graph.Undirected, u, v graph.NodeID) (*graph.Undirected, error) {
	c := g.Clone()
	if !c.RemoveEdge(u, v) {
		return nil, fmt.Errorf("failure: no link %d—%d", u, v)
	}
	return c, nil
}

// RemoveNode returns a copy of g with node n isolated (all incident links
// removed). Node IDs are preserved; the dead node simply becomes
// unreachable.
func RemoveNode(g *graph.Undirected, n graph.NodeID) (*graph.Undirected, error) {
	if int(n) < 0 || int(n) >= g.Len() {
		return nil, fmt.Errorf("failure: node %d out of range", n)
	}
	c := g.Clone()
	for _, nb := range g.Neighbors(n) {
		c.RemoveEdge(n, nb)
	}
	return c, nil
}

// RestoreNode re-attaches a revived node: every link incident to n in the
// reference graph orig is added back to g, except links to neighbors the
// skip predicate still reports dead (a nil skip restores all of them).
// Links that already exist in g are left alone, so restoring is idempotent.
// This is the inverse surgery of RemoveNode, used when a transient crash
// ends and the node rejoins the network.
func RestoreNode(g, orig *graph.Undirected, n graph.NodeID, skip func(graph.NodeID) bool) error {
	if g.Len() != orig.Len() {
		return fmt.Errorf("failure: graph size %d differs from reference %d", g.Len(), orig.Len())
	}
	if int(n) < 0 || int(n) >= orig.Len() {
		return fmt.Errorf("failure: node %d out of range", n)
	}
	for _, nb := range orig.Neighbors(n) {
		if skip != nil && skip(nb) {
			continue
		}
		if g.HasEdge(n, nb) {
			continue
		}
		w, err := orig.Weight(n, nb)
		if err != nil {
			return err
		}
		if err := g.AddEdge(n, nb, w); err != nil {
			return err
		}
	}
	return nil
}

// EvacuationGraph rebuilds g for energy-evacuation routing: every link
// costs 1 hop except links incident to a hot (energy-critical) node,
// which cost penalty. Routed with routing.NewWeightedReversePath, traffic
// detours around hot relays whenever an alternative at most penalty times
// longer exists — shifting load off a dying node before it fails — while
// a hot node that is the only way through still carries traffic rather
// than partitioning the workload. Original edge weights are deliberately
// dropped: the unweighted routers are hop-count based, so with no hot
// nodes the rebuilt graph routes identically to g.
func EvacuationGraph(g *graph.Undirected, hot map[graph.NodeID]bool, penalty float64) (*graph.Undirected, error) {
	if penalty < 1 {
		return nil, fmt.Errorf("failure: evacuation penalty %g must be >= 1", penalty)
	}
	c := graph.NewUndirected(g.Len())
	for _, e := range g.Edges() {
		w := 1.0
		if hot[e.U] || hot[e.V] {
			w = penalty
		}
		if err := c.AddEdge(e.U, e.V, w); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// PruneSpecs removes a dead node from the workload: its own aggregation
// function (if it was a destination) is dropped, and it is removed as a
// source from every function. Functions that lose their last source are
// dropped too; Dropped reports how many. Pruning that leaves no workload
// at all is an error — there is nothing left to plan for, and callers
// that would feed the result to the planner need to stop instead.
func PruneSpecs(specs []agg.Spec, dead graph.NodeID) (pruned []agg.Spec, dropped int, err error) {
	for _, sp := range specs {
		if sp.Dest == dead {
			dropped++
			continue
		}
		if !sp.Func.HasSource(dead) {
			pruned = append(pruned, sp)
			continue
		}
		f, rerr := agg.Rebuild(sp.Func, func(s graph.NodeID) bool { return s != dead })
		if rerr != nil {
			// Last source died: the function can no longer be evaluated.
			dropped++
			continue
		}
		pruned = append(pruned, agg.Spec{Dest: sp.Dest, Func: f})
	}
	if len(pruned) == 0 {
		return nil, dropped, fmt.Errorf("failure: pruning node %d leaves an empty workload", dead)
	}
	return pruned, dropped, nil
}

// DetourHops returns the hop length of the best route from u to v that
// avoids the failed link, or an error if none exists. Under milestone
// routing this is what the communication layer pays to ride out a
// transient failure between two milestones without replanning.
func DetourHops(g *graph.Undirected, u, v graph.NodeID, failedU, failedV graph.NodeID) (int, error) {
	for _, n := range []graph.NodeID{u, v, failedU, failedV} {
		if int(n) < 0 || int(n) >= g.Len() {
			return 0, fmt.Errorf("failure: node %d out of range", n)
		}
	}
	c, err := RemoveLink(g, failedU, failedV)
	if err != nil {
		return 0, err
	}
	h := c.Walk(u).Hops(v)
	if h < 0 {
		return 0, fmt.Errorf("failure: link %d—%d disconnects %d from %d",
			failedU, failedV, u, v)
	}
	return h, nil
}

// Critical reports whether removing the link u—v disconnects the network.
func Critical(g *graph.Undirected, u, v graph.NodeID) (bool, error) {
	for _, n := range []graph.NodeID{u, v} {
		if int(n) < 0 || int(n) >= g.Len() {
			return false, fmt.Errorf("failure: node %d out of range", n)
		}
	}
	c, err := RemoveLink(g, u, v)
	if err != nil {
		return false, err
	}
	return !c.Connected(), nil
}

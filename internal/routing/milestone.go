package routing

import (
	"fmt"

	"m2m/internal/graph"
)

// MilestoneRouter contracts an inner router's canonical paths onto
// milestone nodes (Section 3): the planner sees only sources,
// destinations, and milestones, connected by virtual edges; the
// communication layer is free to deliver between consecutive milestones
// along any physical route. Keep must be a pure function of the node so
// milestone choices are consistent network-wide.
type MilestoneRouter struct {
	net   *graph.Undirected
	inner Router
	keep  KeepFunc
}

// NewMilestoneRouter wraps inner with milestone contraction over net.
func NewMilestoneRouter(net *graph.Undirected, inner Router, keep KeepFunc) *MilestoneRouter {
	return &MilestoneRouter{net: net, inner: inner, keep: keep}
}

// Name implements Router.
func (m *MilestoneRouter) Name() string { return "milestone(" + m.inner.Name() + ")" }

// Path implements Router: the inner canonical path reduced to its
// endpoints and milestone nodes. Contraction preserves the inner router's
// per-destination suffix property because the kept subsequence is a pure
// function of the path.
func (m *MilestoneRouter) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	full, err := m.inner.Path(s, d)
	if err != nil {
		return nil, err
	}
	out := []graph.NodeID{full[0]}
	for i := 1; i < len(full)-1; i++ {
		if m.keep(full[i]) {
			out = append(out, full[i])
		}
	}
	if len(full) > 1 {
		out = append(out, full[len(full)-1])
	}
	return out, nil
}

// EdgeHops estimates the physical hops under a virtual edge: the shortest
// hop distance between its endpoints (the communication layer routes
// freely between milestones). Suitable as sim.Options.EdgeHops.
func (m *MilestoneRouter) EdgeHops(e Edge) int {
	h := m.net.Walk(e.From).Hops(e.To)
	if h < 1 {
		return 1
	}
	return h
}

// VirtualTree is a multicast tree contracted onto milestone nodes
// (Section 3, "Flexibility Trade-Off in Routing using Milestones"). The
// embedded Tree relates the source, destinations, and milestones through
// virtual edges; HopPaths maps each virtual edge to its underlying
// physical node sequence (endpoints inclusive), along which the
// communication layer is free to deliver however it likes.
type VirtualTree struct {
	Tree
	HopPaths map[Edge][]graph.NodeID
}

// PhysicalHops returns the total number of physical hops under the virtual
// edge e, or 0 if e is not a virtual edge of the tree.
func (vt *VirtualTree) PhysicalHops(e Edge) int {
	p, ok := vt.HopPaths[e]
	if !ok {
		return 0
	}
	return len(p) - 1
}

// KeepFunc decides which intermediate nodes become milestones. It must be
// a pure function of the node (not of the tree it appears in) so that
// milestone choices are consistent across trees and the contracted trees
// inherit the path-sharing restriction from the physical ones.
type KeepFunc func(graph.NodeID) bool

// KeepAll makes every intermediate node a milestone: the virtual tree
// equals the physical tree (maximal aggregation opportunity, least routing
// flexibility).
func KeepAll(graph.NodeID) bool { return true }

// KeepNone keeps only sources and destinations: a pure end-to-end overlay
// (maximal routing flexibility, aggregation only at endpoints).
func KeepNone(graph.NodeID) bool { return false }

// KeepEveryKth keeps roughly a 1/k fraction of nodes, chosen by a
// deterministic function of the node ID so the choice is consistent across
// all trees. k must be positive; k = 1 keeps every node.
func KeepEveryKth(k int) KeepFunc {
	if k <= 0 {
		panic("routing: non-positive milestone stride")
	}
	return func(n graph.NodeID) bool {
		// Deterministic pseudo-random fold of the ID, so consecutive IDs do
		// not cluster on the same decision.
		h := uint32(n)*2654435761 + 7
		return h%uint32(k) == 0
	}
}

// KeepByQuality selects as milestones only nodes whose every incident
// link has loss probability at most maxLoss — the paper's guidance that
// milestone density should follow route stability (stable routes can
// afford a milestone at every hop; unstable stretches should be left to
// the communication layer). The decision is a pure function of the node,
// as the planner requires.
func KeepByQuality(net *graph.Undirected, loss func(u, v graph.NodeID) float64, maxLoss float64) KeepFunc {
	return func(n graph.NodeID) bool {
		for _, nb := range net.Neighbors(n) {
			if loss(n, nb) > maxLoss {
				return false
			}
		}
		return true
	}
}

// Contract reduces t onto its source, destinations, and the intermediate
// nodes selected by keep. Every virtual edge records the physical path it
// replaces.
func Contract(t *Tree, keep KeepFunc) (*VirtualTree, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("routing: contract of invalid tree: %w", err)
	}
	kept := map[graph.NodeID]bool{t.Source: true}
	for _, d := range t.Dests {
		kept[d] = true
	}
	for _, n := range t.Nodes() {
		if keep(n) {
			kept[n] = true
		}
	}

	vt := &VirtualTree{
		Tree: Tree{
			Source: t.Source,
			Dests:  append([]graph.NodeID(nil), t.Dests...),
			Parent: make(map[graph.NodeID]graph.NodeID),
		},
		HopPaths: make(map[Edge][]graph.NodeID),
	}
	for n := range kept {
		if n == t.Source {
			continue
		}
		if !t.Contains(n) {
			continue // keep() may select nodes outside this tree
		}
		// Physical climb to the nearest kept ancestor.
		var seg []graph.NodeID
		seg = append(seg, n)
		v := n
		for {
			v = t.Parent[v]
			seg = append(seg, v)
			if kept[v] {
				break
			}
		}
		// seg is child→ancestor; reverse into ancestor→child order.
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		vt.Parent[n] = seg[0]
		vt.HopPaths[Edge{From: seg[0], To: n}] = seg
	}
	return vt, nil
}

package routing

import "m2m/internal/graph"

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

// Fork implements Forker: the fork contracts a fork of the inner router,
// or is nil if the inner router cannot fork.
func (m *MilestoneRouter) Fork() Router {
	inner := Fork(m.inner)
	if inner == nil {
		return nil
	}
	return NewMilestoneRouter(m.net, inner, m.keep)
}

// AppendPath implements Router: the inner canonical path reduced to its
// endpoints and milestone nodes. Contraction preserves the inner router's
// per-destination suffix property because the kept subsequence is a pure
// function of the path. The inner path is appended to dst and compacted
// in place.
func (m *MilestoneRouter) AppendPath(dst []graph.NodeID, s, d graph.NodeID) ([]graph.NodeID, error) {
	n := len(dst)
	full, err := m.inner.AppendPath(dst, s, d)
	if err != nil {
		return dst, err
	}
	k := n + 1 // full[n] is s, always kept
	for i := n + 1; i < len(full)-1; i++ {
		if m.keep(full[i]) {
			full[k] = full[i]
			k++
		}
	}
	if len(full)-n > 1 {
		full[k] = full[len(full)-1]
		k++
	}
	return full[:k], nil
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

// KeepFunc decides which intermediate nodes become milestones. It must be
// a pure function of the node (not of the tree it appears in) so that
// milestone choices are consistent across paths and the contracted paths
// inherit the path-sharing restriction from the physical ones.
type KeepFunc func(graph.NodeID) bool

// KeepAll makes every intermediate node a milestone: the contracted paths
// equal the physical ones (maximal aggregation opportunity, least routing
// flexibility).
func KeepAll(graph.NodeID) bool { return true }

// KeepNone keeps only sources and destinations: a pure end-to-end overlay
// (maximal routing flexibility, aggregation only at endpoints).
func KeepNone(graph.NodeID) bool { return false }

// KeepEveryKth keeps roughly a 1/k fraction of nodes, chosen by a
// deterministic function of the node ID so the choice is consistent across
// all paths. k must be positive; k = 1 keeps every node.
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

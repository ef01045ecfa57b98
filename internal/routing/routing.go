// Package routing supplies the canonical paths that the many-to-many
// aggregation planner optimizes over (Section 2.1 of the paper). The paper
// states the problem over one multicast tree per source, restricted by
// minimality (every edge is needed to reach some destination) and path
// sharing (if node i can reach node j in two trees, the two i→j paths are
// identical). The planner takes the union of Router paths instead: each
// source's multicast tree is the union of its paths, so minimality holds
// by construction, and NewInstance checks the per-destination side of
// sharing with a SuffixChecker. The routers here include a shared global
// tree, under which both restrictions hold for every workload, and the
// milestone contraction of Section 3.
package routing

import (
	"cmp"
	"fmt"
	"slices"

	"m2m/internal/graph"
)

// Edge is a directed multicast tree edge.
type Edge struct {
	From, To graph.NodeID
}

func (e Edge) String() string { return fmt.Sprintf("%d→%d", e.From, e.To) }

// CompareEdges orders edges by (From, To), the order of every sorted edge
// list in the planner.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// occupiedConnected reports whether the nodes that have at least one
// link form a single non-empty connected component. Isolated slots —
// left behind when a session removes a failed node's links — are
// ignored: they cannot carry traffic and the workload never references
// them.
func occupiedConnected(net *graph.Undirected) bool {
	start := graph.NodeID(-1)
	occupied := 0
	for u := 0; u < net.Len(); u++ {
		if net.Degree(graph.NodeID(u)) > 0 {
			occupied++
			if start < 0 {
				start = graph.NodeID(u)
			}
		}
	}
	if occupied == 0 {
		return false
	}
	pt := net.BFS(start)
	reached := 0
	for u := 0; u < net.Len(); u++ {
		if net.Degree(graph.NodeID(u)) > 0 && pt.Reachable(graph.NodeID(u)) {
			reached++
		}
	}
	return reached == occupied
}

// SharedTree routes every multicast tree inside one global spanning tree
// (a shortest-path tree rooted at a deterministic center). Paths between
// any two nodes are then unique network-wide, so the sharing restriction
// holds by construction and Theorem 1 applies without repair.
type SharedTree struct {
	global *graph.PathTree
	depth  []int32 // hops from the root; -1 outside the tree
}

// NewSharedTree builds the global routing tree for net, rooted at the node
// with minimum eccentricity (smallest ID on ties). Isolated nodes are
// tolerated: sessions remove failed nodes by cutting their links while
// keeping the slot so NodeIDs stay stable, and such slots can neither
// route nor anchor the tree.
func NewSharedTree(net *graph.Undirected) (*SharedTree, error) {
	if net.Len() == 0 {
		return nil, fmt.Errorf("routing: empty network")
	}
	if !occupiedConnected(net) {
		return nil, fmt.Errorf("routing: network not connected")
	}
	global := net.BFS(networkCenter(net))
	depth := make([]int32, net.Len())
	for u := range depth {
		depth[u] = -1
		if global.Reachable(graph.NodeID(u)) {
			depth[u] = int32(global.Dist[u])
		}
	}
	return &SharedTree{global: global, depth: depth}, nil
}

// networkCenter returns the linked node of minimum eccentricity, the
// smallest ID on ties. One walk is reset from node to node; a walk that
// reaches the best eccentricity so far is abandoned there, since only a
// strictly smaller one can win. A walk that runs to the end, from u,
// bounds every node v it reached from below: ecc(v) ≥ hops(u, v), and
// ecc(v) ≥ ecc(u) − hops(u, v) by the triangle inequality. A candidate
// whose bound already reaches the best eccentricity is skipped unwalked.
func networkCenter(net *graph.Undirected) graph.NodeID {
	var w *graph.Walk
	center, bestEcc := graph.NodeID(0), -1
	lower := make([]int32, net.Len()) // lower bound on each node's eccentricity
	for u := 0; u < net.Len(); u++ {
		id := graph.NodeID(u)
		if net.Degree(id) == 0 || (bestEcc >= 0 && int(lower[u]) >= bestEcc) {
			continue
		}
		if w == nil {
			w = net.Walk(id)
		} else {
			w.Reset(id)
		}
		if bestEcc >= 0 && w.Layer(bestEcc) != nil {
			continue
		}
		center, bestEcc = id, w.Eccentricity()
		for h := 0; h <= bestEcc; h++ {
			b := int32(max(bestEcc-h, h))
			for _, v := range w.Layer(h) {
				lower[v] = max(lower[v], b)
			}
		}
	}
	return center
}

// Name implements Router.
func (b *SharedTree) Name() string { return "shared-tree" }

func (b *SharedTree) inTree(u graph.NodeID) bool {
	return u >= 0 && int(u) < len(b.depth) && b.depth[u] >= 0
}

// treePathInto appends the path from a to c, both inclusive, in the tree
// given by parent and depth pointers, to dst. It climbs both ends to
// their lowest common ancestor once to size the path, then again to fill
// it from both ends. Pointers that do not form a tree return dst
// unchanged and an error once the climb has taken more steps than any
// tree path of n nodes can.
func treePathInto(dst, parent []graph.NodeID, depth []int32, a, c graph.NodeID) ([]graph.NodeID, error) {
	x, y := a, c
	for steps := 0; x != y; steps++ {
		if steps >= 2*len(parent) {
			return dst, fmt.Errorf("routing: tree climb from %d and %d finds no common ancestor", a, c)
		}
		switch {
		case depth[x] > depth[y]:
			x = parent[x]
		case depth[y] > depth[x]:
			y = parent[y]
		default:
			x, y = parent[x], parent[y]
		}
	}
	up, down := int(depth[a]-depth[x]), int(depth[c]-depth[x])
	n := len(dst)
	dst = slices.Grow(dst, up+down+1)[:n+up+down+1]
	path := dst[n:]
	for i, v := 0, a; i <= up; i, v = i+1, parent[v] {
		path[i] = v
	}
	for i, v := up+down, c; i > up; i, v = i-1, parent[v] {
		path[i] = v
	}
	return dst, nil
}

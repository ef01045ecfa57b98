// Package routing builds the multicast trees that the many-to-many
// aggregation planner optimizes over (Section 2.1 of the paper). Each tree
// is rooted at a source and spans that source's destinations, with edges
// directed away from the root.
//
// The paper imposes two restrictions: minimality (every edge is needed to
// reach some destination) and path sharing (if node i can reach node j in
// two trees, the two i→j paths are identical). Package routing provides two
// builders — the paper's "standard" per-source shortest-path trees, and a
// shared-global-tree builder that provably satisfies both restrictions —
// plus checkers for both restrictions and the milestone contraction of
// Section 3.
package routing

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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

// Tree is a multicast tree: a directed tree rooted at Source spanning
// Dests. Parent maps every non-root tree node to its parent (toward the
// source).
type Tree struct {
	Source graph.NodeID
	Dests  []graph.NodeID
	Parent map[graph.NodeID]graph.NodeID
}

// Nodes returns all tree nodes in ascending order.
func (t *Tree) Nodes() []graph.NodeID {
	out := []graph.NodeID{t.Source}
	for n := range t.Parent {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of tree nodes (|T_s| in Theorem 3).
func (t *Tree) Size() int { return len(t.Parent) + 1 }

// Contains reports whether n is a tree node.
func (t *Tree) Contains(n graph.NodeID) bool {
	if n == t.Source {
		return true
	}
	_, ok := t.Parent[n]
	return ok
}

// Edges returns all directed edges (parent→child) sorted by (From, To).
func (t *Tree) Edges() []Edge {
	out := make([]Edge, 0, len(t.Parent))
	for child, parent := range t.Parent {
		out = append(out, Edge{From: parent, To: child})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Children returns the children of n sorted ascending.
func (t *Tree) Children(n graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for child, parent := range t.Parent {
		if parent == n {
			out = append(out, child)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathTo returns the node sequence from the source to n (both inclusive),
// or nil if n is not in the tree.
func (t *Tree) PathTo(n graph.NodeID) []graph.NodeID {
	if !t.Contains(n) {
		return nil
	}
	var rev []graph.NodeID
	for v := n; ; {
		rev = append(rev, v)
		if v == t.Source {
			break
		}
		v = t.Parent[v]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Validate checks structural soundness: every destination is spanned, the
// parent map is acyclic and rooted at Source, and (minimality) every leaf
// is a destination.
func (t *Tree) Validate() error {
	isDest := make(map[graph.NodeID]bool, len(t.Dests))
	for _, d := range t.Dests {
		isDest[d] = true
		if !t.Contains(d) {
			return fmt.Errorf("routing: tree of %d does not span destination %d", t.Source, d)
		}
	}
	for n := range t.Parent {
		if n == t.Source {
			return fmt.Errorf("routing: source %d has a parent", t.Source)
		}
		// Walk to the root, bounded by tree size to catch cycles.
		v, steps := n, 0
		for v != t.Source {
			p, ok := t.Parent[v]
			if !ok {
				return fmt.Errorf("routing: node %d detached from source %d", n, t.Source)
			}
			v = p
			if steps++; steps > len(t.Parent) {
				return fmt.Errorf("routing: cycle in tree of %d through %d", t.Source, n)
			}
		}
	}
	hasChild := make(map[graph.NodeID]bool)
	for _, p := range t.Parent {
		hasChild[p] = true
	}
	for n := range t.Parent {
		if !hasChild[n] && !isDest[n] {
			return fmt.Errorf("routing: non-destination leaf %d violates minimality", n)
		}
	}
	return nil
}

// Builder constructs multicast trees over a connectivity graph.
type Builder interface {
	// Name identifies the strategy in reports and plan dumps.
	Name() string
	// Build returns the multicast tree for source spanning dests.
	Build(net *graph.Undirected, source graph.NodeID, dests []graph.NodeID) (*Tree, error)
}

// treeFromPaths assembles a Tree from the union of root→dest paths taken
// inside a single PathTree, so the union is guaranteed to be a tree.
func treeFromPaths(pt *graph.PathTree, source graph.NodeID, dests []graph.NodeID) (*Tree, error) {
	t := &Tree{
		Source: source,
		Dests:  append([]graph.NodeID(nil), dests...),
		Parent: make(map[graph.NodeID]graph.NodeID),
	}
	sort.Slice(t.Dests, func(i, j int) bool { return t.Dests[i] < t.Dests[j] })
	for _, d := range t.Dests {
		path := pt.PathTo(d)
		if path == nil {
			return nil, fmt.Errorf("routing: destination %d unreachable from %d", d, source)
		}
		for i := 1; i < len(path); i++ {
			t.Parent[path[i]] = path[i-1]
		}
	}
	return t, nil
}

// SPT is the paper's "standard algorithm for constructing single-source
// multicast trees": the union of deterministic shortest paths from the
// source to each destination, drawn from one Dijkstra tree per source.
// Trees from different sources may violate the path-sharing restriction,
// which the planner rejects (see Router).
type SPT struct {
	// Hops selects hop-count (BFS) shortest paths instead of
	// distance-weighted ones. Hop-count routing is the sensor-network norm
	// and the default used by the experiments.
	Hops bool
}

// Name implements Builder.
func (b SPT) Name() string {
	if b.Hops {
		return "spt-hops"
	}
	return "spt-dist"
}

// Build implements Builder.
func (b SPT) Build(net *graph.Undirected, source graph.NodeID, dests []graph.NodeID) (*Tree, error) {
	var pt *graph.PathTree
	if b.Hops {
		pt = net.BFS(source)
	} else {
		pt = net.Dijkstra(source)
	}
	return treeFromPaths(pt, source, dests)
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

// Name implements Builder.
func (b *SharedTree) Name() string { return "shared-tree" }

// Build implements Builder. The tree for (source, dests) is the Steiner
// subtree of the global tree spanning them, oriented away from the source.
func (b *SharedTree) Build(net *graph.Undirected, source graph.NodeID, dests []graph.NodeID) (*Tree, error) {
	t := &Tree{
		Source: source,
		Dests:  append([]graph.NodeID(nil), dests...),
		Parent: make(map[graph.NodeID]graph.NodeID),
	}
	sort.Slice(t.Dests, func(i, j int) bool { return t.Dests[i] < t.Dests[j] })
	for _, d := range t.Dests {
		path := b.treePath(source, d)
		if path == nil {
			return nil, fmt.Errorf("routing: no tree path %d→%d", source, d)
		}
		for i := 1; i < len(path); i++ {
			t.Parent[path[i]] = path[i-1]
		}
	}
	return t, nil
}

// treePath returns the unique path from a to c inside the global tree,
// or nil if either lies outside it.
func (b *SharedTree) treePath(a, c graph.NodeID) []graph.NodeID {
	if !b.inTree(a) || !b.inTree(c) {
		return nil
	}
	return treePathInto(nil, b.global.Parent, b.depth, a, c)
}

func (b *SharedTree) inTree(u graph.NodeID) bool {
	return u >= 0 && int(u) < len(b.depth) && b.depth[u] >= 0
}

// treePathInto returns the path from a to c, both inclusive, in the tree
// given by parent and depth pointers, reusing buf's storage. It climbs
// both ends to their lowest common ancestor once to size the path, then
// again to fill it from both ends.
func treePathInto(buf, parent []graph.NodeID, depth []int32, a, c graph.NodeID) []graph.NodeID {
	x, y := a, c
	for depth[x] > depth[y] {
		x = parent[x]
	}
	for depth[y] > depth[x] {
		y = parent[y]
	}
	for x != y {
		x, y = parent[x], parent[y]
	}
	up, down := int(depth[a]-depth[x]), int(depth[c]-depth[x])
	path := slices.Grow(buf[:0], up+down+1)[:up+down+1]
	for i, v := 0, a; i <= up; i, v = i+1, parent[v] {
		path[i] = v
	}
	for i, v := up+down, c; i > up; i, v = i-1, parent[v] {
		path[i] = v
	}
	return path
}

// CheckSharing verifies the paper's second restriction across trees: every
// ordered node pair (i, j) connected inside two trees must use the same
// i→j path. It returns the first conflicting pair found, or nil.
func CheckSharing(trees []*Tree) error {
	type key struct{ from, to graph.NodeID }
	seen := make(map[key]string)
	for _, t := range trees {
		for _, n := range t.Nodes() {
			path := t.PathTo(n)
			// Every suffix pair (path[i] → n) is a directed path in t.
			for i := 0; i < len(path)-1; i++ {
				k := key{from: path[i], to: n}
				sig := fmt.Sprint(path[i:])
				if prev, ok := seen[k]; ok && prev != sig {
					return fmt.Errorf("routing: sharing violated for %d→%d: %s vs %s",
						k.from, k.to, prev, sig)
				}
				seen[k] = sig
			}
		}
	}
	return nil
}

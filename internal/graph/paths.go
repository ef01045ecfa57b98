package graph

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Unreachable is the distance reported for nodes with no path to the
// search root.
const Unreachable = math.MaxFloat64

// PathTree is the result of a single-source search: for every node, the
// distance from (or to) the root and the deterministic parent pointer
// toward the root. Parent[root] == root; Parent[u] == -1 for unreachable u.
type PathTree struct {
	Root   NodeID
	Dist   []float64
	Parent []NodeID
}

// Reachable reports whether u was reached by the search.
func (t *PathTree) Reachable(u NodeID) bool { return t.Parent[u] != -1 }

// PathTo returns the node sequence from t.Root to u (inclusive of both), or
// nil if u is unreachable. It returns an error if u's parent chain does not
// reach the root within n-1 hops, so a tree whose parents form a cycle
// cannot make it loop.
func (t *PathTree) PathTo(u NodeID) ([]NodeID, error) {
	h, err := t.Hops(u)
	if h < 0 {
		return nil, err
	}
	path := make([]NodeID, h+1)
	for i, v := h, u; i >= 0; i, v = i-1, t.Parent[v] {
		path[i] = v
	}
	return path, nil
}

// Hops returns the number of edges on the tree path from the root to u, or
// -1 if unreachable. Like PathTo, it returns an error for a parent chain
// that does not reach the root within n-1 hops.
func (t *PathTree) Hops(u NodeID) (int, error) {
	if !t.Reachable(u) {
		return -1, nil
	}
	h := 0
	for v := u; v != t.Root; v = t.Parent[v] {
		if h++; h >= len(t.Parent) || t.Parent[v] < 0 {
			return -1, fmt.Errorf("graph: parent chain from %d does not reach root %d", u, t.Root)
		}
	}
	return h, nil
}

// BFS computes hop-count shortest paths from root, breaking parent ties by
// smallest parent ID. Every edge counts as distance 1 regardless of weight.
// It is a Walk run to exhaustion.
func (g *Undirected) BFS(root NodeID) *PathTree {
	w := g.Walk(root)
	w.order = slices.Grow(w.order, g.n-1) // a full walk queues the whole component
	t := newTree(g.n, root)
	for u, ok := w.step(); ok; u, ok = w.step() {
		// u's adjacency was just scanned, so its parent is a cache hit.
		t.Dist[u] = float64(w.depth[u] - 1)
		t.Parent[u] = w.Parent(u)
	}
	return t
}

// Walk is a resumable breadth-first search from a root: it expands the
// graph one node at a time, in layer order, only as far as its queries
// need. A node's parent is its smallest-ID neighbour one hop closer to the
// root, the tiebreak of every search in this package. Both a node's hop
// count and its parent are final once the node is discovered: discovering
// a hop-h node means expanding a hop-(h-1) node, which the queue reaches
// only after the whole hop-(h-2) layer, so every hop-(h-1) node is known
// by then. The graph must not change while a walk is in use.
type Walk struct {
	g     *Undirected
	depth []int32  // hop count + 1; 0 while undiscovered
	order []NodeID // discovered nodes, layer by layer
	start []int    // start[h] is the index in order of the first hop-h node
	next  int      // index in order of the next node to expand
}

// Walk starts a breadth-first walk from root. Nothing beyond root is
// explored until a query asks for it.
func (g *Undirected) Walk(root NodeID) *Walk {
	w := &Walk{g: g, depth: make([]int32, g.n), order: []NodeID{root}, start: []int{0}}
	w.depth[root] = 1
	return w
}

// Root returns the node the walk starts from.
func (w *Walk) Root() NodeID { return w.order[0] }

// Reset restarts the walk from root, reusing its storage. Only the
// entries of nodes discovered so far are cleared, so a walk that stopped
// after a few layers resets in time proportional to what it explored.
func (w *Walk) Reset(root NodeID) {
	for _, u := range w.order {
		w.depth[u] = 0
	}
	w.order = append(w.order[:0], root)
	w.start = append(w.start[:0], 0)
	w.next = 0
	w.depth[root] = 1
}

// step expands the next discovered node and returns it; ok is false once
// the root's component is exhausted.
func (w *Walk) step() (u NodeID, ok bool) {
	if w.next == len(w.order) {
		return -1, false
	}
	u = w.order[w.next]
	w.next++
	depth, order := w.depth, w.order
	du, first := depth[u], len(order)
	for _, v := range w.g.nbr[u] {
		if depth[v] == 0 {
			depth[v] = du + 1
			order = append(order, NodeID(v))
		}
	}
	// Everything u discovered is one hop past it; the first such node
	// opens its layer unless an earlier node of u's layer opened it.
	if len(order) > first && int(du) == len(w.start) {
		w.start = append(w.start, first)
	}
	w.order = order
	return u, true
}

// Hops returns the hop distance from the root to v, or -1 if v is
// unreachable. It expands the walk until v is discovered, or through the
// whole of the root's component if v lies outside it.
func (w *Walk) Hops(v NodeID) int {
	for w.depth[v] == 0 {
		if _, ok := w.step(); !ok {
			break
		}
	}
	return int(w.depth[v]) - 1
}

// Parent returns v's parent toward the root: the root for the root itself,
// -1 if v is unreachable. Like Hops, it expands the walk until v is
// discovered.
func (w *Walk) Parent(v NodeID) NodeID {
	h := w.Hops(v)
	switch {
	case h < 0:
		return -1
	case h == 0:
		return v
	}
	return w.neighbourAt(v, int32(h))
}

// AppendClimb appends v's parent chain to dst: v, its parent, and so on
// up to the root. It returns dst unchanged and false if v is unreachable.
// Unlike Hops and Parent it needs no more of the walk than v's distance:
// when v is undiscovered and the next node to expand is h-1 hops out,
// every node within h-1 hops is known, so v is h hops out exactly when it
// has a neighbour h-1 hops out, and the smallest-ID one is v's parent.
// One scan of v's neighbours then stands in for expanding that layer.
// Otherwise v is farther, and the walk expands the whole layer, which
// cannot discover v, before it looks again. Every node after v on the
// chain is discovered.
func (w *Walk) AppendClimb(dst []NodeID, v NodeID) ([]NodeID, bool) {
	var h int
	var p NodeID
	for {
		d := w.depth[v]
		if d == 1 { // v is the root
			break
		}
		if d > 1 {
			h, p = int(d)-1, w.neighbourAt(v, d-1)
			break
		}
		if w.next == len(w.order) {
			return dst, false
		}
		d = w.depth[w.order[w.next]]
		if p = w.neighbourAt(v, d); p >= 0 {
			h = int(d)
			break
		}
		for w.next < len(w.order) && w.depth[w.order[w.next]] == d {
			w.step()
		}
	}
	dst = append(slices.Grow(dst, h+1), v)
	for ; h > 0; h-- {
		dst = append(dst, p)
		if h > 1 {
			p = w.neighbourAt(p, int32(h-1))
		}
	}
	return dst, true
}

// neighbourAt returns v's smallest-ID neighbour whose depth entry is d
// (one that is d-1 hops out), or -1 if it has none.
func (w *Walk) neighbourAt(v NodeID, d int32) NodeID {
	p := int32(-1)
	for _, u := range w.g.nbr[v] {
		if w.depth[u] == d && (p == -1 || u < p) {
			p = u
		}
	}
	return NodeID(p)
}

// Layer returns the nodes exactly h hops from the root, in discovery
// order, or nil if there are none. The layer is complete once every
// hop-(h-1) node has been expanded, and the walk goes no further. The
// slice belongs to the walk and must not be modified.
func (w *Walk) Layer(h int) []NodeID {
	if h < 0 {
		return nil
	}
	for w.next < len(w.order) && int(w.depth[w.order[w.next]]) <= h {
		w.step()
	}
	if h >= len(w.start) {
		return nil
	}
	end := len(w.order)
	if h+1 < len(w.start) {
		end = w.start[h+1]
	}
	return w.order[w.start[h]:end:end]
}

// Eccentricity expands the walk through the root's whole component and
// returns the hop distance of its farthest node: the index of the last
// layer.
func (w *Walk) Eccentricity() int {
	for _, ok := w.step(); ok; _, ok = w.step() {
	}
	return len(w.start) - 1
}

// Dijkstra computes weighted shortest paths from root with deterministic
// tiebreaking: among equal-distance paths, the parent with the smallest ID
// is chosen. Edge weights must be non-negative. With a zero-weight edge,
// a node's parent is the smallest-ID equal-distance neighbour finalized
// before it, which keeps the parent pointers a tree.
func (g *Undirected) Dijkstra(root NodeID) *PathTree {
	t := newTree(g.n, root)
	t.Dist[root] = 0
	pq := &nodeHeap{{id: root, dist: 0}}
	done := make([]bool, g.n)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.id
		if done[u] {
			continue
		}
		done[u] = true
		for i, x := range g.nbr[u] {
			v := NodeID(x)
			nd := t.Dist[u] + g.wt[u][i]
			switch {
			case nd < t.Dist[v]:
				t.Dist[v] = nd
				t.Parent[v] = u
				heap.Push(pq, nodeItem{id: v, dist: nd})
			case nd == t.Dist[v] && u < t.Parent[v] && v != root && !done[v]:
				// A finalized v keeps its parent: across a zero-weight
				// edge, re-parenting it to u can close a parent cycle.
				t.Parent[v] = u
			}
		}
	}
	return t
}

func newTree(n int, root NodeID) *PathTree {
	t := &PathTree{
		Root:   root,
		Dist:   make([]float64, n),
		Parent: make([]NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Unreachable
		t.Parent[i] = -1
	}
	t.Parent[root] = root
	return t
}

type nodeItem struct {
	id   NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Components returns the connected components of g, each sorted by ID, with
// components ordered by their smallest member.
func (g *Undirected) Components() [][]NodeID {
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(s)}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.nbr[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, NodeID(v))
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether g is connected (trivially true for n <= 1).
func (g *Undirected) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.Components()) == 1
}

package routing

import (
	"fmt"

	"m2m/internal/graph"
)

// MinDegreeTree routes like SharedTree — every pair's path lives inside
// one global spanning tree, so both of the paper's routing restrictions
// hold by construction — but the global tree is chosen to minimize the
// maximum node degree rather than path lengths. Under a contended radio
// a node's receive fan-in in the message graph is bounded by its tree
// degree, so low-degree trees bound per-receiver contention (Chang &
// Guan's minimum-degree spanning tree connection) — paid for in path
// stretch, which can deepen precedence chains and with them the TDMA
// frame. The builder is a deterministic Fürer–Raghavachari-style
// local search: starting from the BFS tree at the network center, any
// non-tree edge (u,v) whose tree cycle contains a node w with
// deg(w) >= max(deg(u), deg(v)) + 2 trades one of w's cycle edges for
// (u,v). Each swap strictly shrinks the high end of the degree sequence,
// so the search terminates; the result is within one of the locally
// optimal maximum degree.
type MinDegreeTree struct {
	SharedTree
	maxDeg int
}

// NewMinDegreeTree builds the low-degree global routing tree for net,
// rooted at the node with minimum eccentricity (smallest ID on ties).
//
// The search keeps the tree rooted at the center as parent and depth
// arrays, so a non-tree edge's cycle is the tree path between its ends,
// found by climbing both to their lowest common ancestor in time
// proportional to the path. A swap re-roots the tree with one O(n) walk;
// swaps are rare next to cycle queries. A pass over the edges therefore
// costs O(m·depth) plus O(n) per swap, and allocates only to grow one
// reused path buffer.
func NewMinDegreeTree(net *graph.Undirected) (*MinDegreeTree, error) {
	if net.Len() == 0 {
		return nil, fmt.Errorf("routing: empty network")
	}
	if !occupiedConnected(net) {
		return nil, fmt.Errorf("routing: network not connected")
	}
	t := newSwapTree(net, networkCenter(net))
	edges := net.Edges()
	var path []graph.NodeID
	for improved := true; improved; {
		improved = false
		for _, e := range edges {
			u, v := e.U, e.V
			if t.parent[u] == v || t.parent[v] == u {
				continue
			}
			var err error
			if path, err = treePathInto(path[:0], t.parent, t.depth, u, v); err != nil {
				return nil, err
			}
			// The cycle is path plus the edge (u,v); find its highest-degree
			// interior node (deterministic: first along the path from u).
			wi := -1
			for i := 1; i < len(path)-1; i++ {
				if wi == -1 || t.deg(path[i]) > t.deg(path[wi]) {
					wi = i
				}
			}
			if wi == -1 {
				continue
			}
			w := path[wi]
			if t.deg(w) < max(t.deg(u), t.deg(v))+2 {
				continue
			}
			// Swap: drop w's cycle edge toward u's side, add (u,v).
			t.unlink(path[wi-1], w)
			t.link(u, v)
			t.reroot()
			improved = true
		}
	}

	global := &graph.PathTree{
		Root:   t.root,
		Dist:   make([]float64, len(t.depth)),
		Parent: t.parent,
	}
	maxDeg := 0
	for u, d := range t.depth {
		if d > 0 {
			global.Dist[u] = float64(d)
		}
		maxDeg = max(maxDeg, t.deg(graph.NodeID(u)))
	}
	return &MinDegreeTree{
		SharedTree: SharedTree{global: global, depth: t.depth},
		maxDeg:     maxDeg,
	}, nil
}

// swapTree is the local search's working tree: symmetric adjacency lists,
// so a node's tree degree is len(adj[x]), and parent/depth arrays rooted
// at the center that answer path queries. Nodes outside the tree
// (isolated slots) have parent and depth -1.
type swapTree struct {
	root   graph.NodeID
	adj    [][]graph.NodeID
	parent []graph.NodeID
	depth  []int32
	queue  []graph.NodeID // reroot scratch
}

// newSwapTree seeds the working tree with net's BFS tree at root. A
// node's tree degree never exceeds its network degree, so every
// adjacency list is carved from one backing array at its network degree.
func newSwapTree(net *graph.Undirected, root graph.NodeID) *swapTree {
	n := net.Len()
	t := &swapTree{
		root:  root,
		adj:   make([][]graph.NodeID, n),
		depth: make([]int32, n),
		queue: make([]graph.NodeID, 0, n),
	}
	back := make([]graph.NodeID, 2*net.NumEdges())
	off := 0
	for u := range t.adj {
		d := net.Degree(graph.NodeID(u))
		t.adj[u] = back[off : off : off+d]
		off += d
	}
	bfs := net.BFS(root)
	t.parent = bfs.Parent
	for u, p := range t.parent {
		if p == -1 {
			t.depth[u] = -1
			continue
		}
		t.depth[u] = int32(bfs.Dist[u])
		if graph.NodeID(u) != root {
			t.link(graph.NodeID(u), p)
		}
	}
	return t
}

func (t *swapTree) deg(x graph.NodeID) int { return len(t.adj[x]) }

func (t *swapTree) link(a, b graph.NodeID) {
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

func (t *swapTree) unlink(a, b graph.NodeID) {
	t.adj[a] = removeNode(t.adj[a], b)
	t.adj[b] = removeNode(t.adj[b], a)
}

// removeNode deletes x from s by moving the last element into its place;
// adjacency order is irrelevant to a tree's parent pointers.
func removeNode(s []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	panic(fmt.Sprintf("routing: %d is not a tree neighbour", x))
}

// reroot recomputes parent and depth from the adjacency lists by one
// breadth-first walk from the root. The tree spans the same nodes after a
// swap, so nodes outside it keep their -1 entries.
func (t *swapTree) reroot() {
	q := append(t.queue[:0], t.root)
	t.parent[t.root], t.depth[t.root] = t.root, 0
	for i := 0; i < len(q); i++ {
		x := q[i]
		for _, y := range t.adj[x] {
			if y != t.parent[x] {
				t.parent[y], t.depth[y] = x, t.depth[x]+1
				q = append(q, y)
			}
		}
	}
	t.queue = q
}

// Name implements Router.
func (b *MinDegreeTree) Name() string { return "min-degree-tree" }

// Fork implements Forker: the tree is never modified after it is built.
func (b *MinDegreeTree) Fork() Router { return b }

// MaxDegree returns the maximum node degree of the global tree.
func (b *MinDegreeTree) MaxDegree() int { return b.maxDeg }

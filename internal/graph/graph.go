// Package graph provides the graph algorithms underlying the sensor-network
// substrate: weighted undirected graphs with deterministic shortest paths,
// minimum spanning trees, connectivity queries, and directed-graph utilities
// (topological ordering, cycle detection) used by the message scheduler.
//
// Determinism matters throughout this repository: the planner's optimality
// proof (Theorem 1 of the paper) requires globally consistent tiebreaking,
// so every algorithm here breaks ties by smallest node ID.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a sensor node. IDs are small non-negative integers,
// dense in [0, N) for a network of N nodes.
type NodeID int

// Edge is an undirected weighted edge.
type Edge struct {
	U, V NodeID
	W    float64
}

// Undirected is a weighted undirected graph over nodes 0..n-1 stored as
// adjacency lists. The zero value is not usable; call NewUndirected.
type Undirected struct {
	n   int
	adj [][]halfEdge
}

type halfEdge struct {
	to NodeID
	w  float64
}

// NewUndirected returns an empty undirected graph on n nodes.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Undirected{n: n, adj: make([][]halfEdge, n)}
}

// Len returns the number of nodes.
func (g *Undirected) Len() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Undirected) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// AddEdge adds an undirected edge u—v with weight w. Self-loops and
// duplicate edges are rejected.
func (g *Undirected) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge %d—%d", u, v)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	return nil
}

// NewUndirectedFromEdges returns the graph on n nodes with the given
// edges, without the range, self-loop, and duplicate checks of AddEdge.
// The duplicate scan is O(degree), which turns bulk construction of dense
// graphs quadratic; callers that generate each edge exactly once (e.g.
// the topology package's spatial-hash sweep) skip it. Adjacency lists
// come out in the order AddEdge would build them edge by edge. They are
// carved from one backing array, each with capacity equal to its degree,
// so growing one list later reallocates it instead of overwriting the
// next.
func NewUndirectedFromEdges(n int, edges []Edge) *Undirected {
	g := NewUndirected(n)
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	back := make([]halfEdge, 2*len(edges))
	off := 0
	for u, d := range deg {
		if d > 0 {
			g.adj[u] = back[off : off : off+int(d)]
			off += int(d)
		}
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], halfEdge{to: e.V, w: e.W})
		g.adj[e.V] = append(g.adj[e.V], halfEdge{to: e.U, w: e.W})
	}
	return g
}

// RemoveEdge removes the undirected edge u—v if present and reports whether
// it existed.
func (g *Undirected) RemoveEdge(u, v NodeID) bool {
	removed := g.removeHalf(u, v)
	if removed {
		g.removeHalf(v, u)
	}
	return removed
}

func (g *Undirected) removeHalf(u, v NodeID) bool {
	if int(u) < 0 || int(u) >= g.n {
		return false
	}
	a := g.adj[u]
	for i, h := range a {
		if h.to == v {
			g.adj[u] = append(a[:i], a[i+1:]...)
			return true
		}
	}
	return false
}

// HasEdge reports whether edge u—v exists.
func (g *Undirected) HasEdge(u, v NodeID) bool {
	if int(u) < 0 || int(u) >= g.n {
		return false
	}
	for _, h := range g.adj[u] {
		if h.to == v {
			return true
		}
	}
	return false
}

// Weight returns the weight of edge u—v, or an error if absent.
func (g *Undirected) Weight(u, v NodeID) (float64, error) {
	if int(u) >= 0 && int(u) < g.n {
		for _, h := range g.adj[u] {
			if h.to == v {
				return h.w, nil
			}
		}
	}
	return 0, fmt.Errorf("graph: no edge %d—%d", u, v)
}

// Neighbors returns the neighbors of u sorted by ID.
func (g *Undirected) Neighbors(u NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[u]))
	for _, h := range g.adj[u] {
		out = append(out, h.to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of neighbors of u.
func (g *Undirected) Degree(u NodeID) int { return len(g.adj[u]) }

// Edges returns all undirected edges with U < V, sorted by (U, V).
func (g *Undirected) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if NodeID(u) < h.to {
				out = append(out, Edge{U: NodeID(u), V: h.to, W: h.w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func (g *Undirected) check(u NodeID) error {
	if int(u) < 0 || int(u) >= g.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, g.n)
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected(g.n)
	for u := range g.adj {
		c.adj[u] = append([]halfEdge(nil), g.adj[u]...)
	}
	return c
}

// GroupBy is a stable counting sort: it buckets items 0..n-1 by key(i) in
// [0, nKeys), skipping items whose key is negative, and returns the items
// of key k as members[off[k]:off[k+1]], ascending.
func GroupBy(n, nKeys int, key func(int) int32) (off, members []int32) {
	// Count key k's items at off[k] and turn the counts into group ends;
	// placing the items back to front then leaves each off[k] at its
	// group's start.
	off = make([]int32, nKeys+1)
	for i := 0; i < n; i++ {
		if k := key(i); k >= 0 {
			off[k]++
		}
	}
	for k := 1; k <= nKeys; k++ {
		off[k] += off[k-1]
	}
	members = make([]int32, off[nKeys])
	for i := n - 1; i >= 0; i-- {
		if k := key(i); k >= 0 {
			off[k]--
			members[off[k]] = int32(i)
		}
	}
	return off, members
}

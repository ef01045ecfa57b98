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
	"math"
	"slices"
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
// adjacency rows: nbr[u] lists u's neighbours in insertion order as int32
// ids, and wt[u][i] is the weight of the edge u—nbr[u][i]. Searches that
// need only the neighbours (Walk, BFS) scan 4-byte ids; Dijkstra and the
// weight queries read the parallel weight rows. The zero value is not
// usable; call NewUndirected.
type Undirected struct {
	n   int
	nbr [][]int32
	wt  [][]float64
}

// NewUndirected returns an empty undirected graph on n nodes.
func NewUndirected(n int) *Undirected {
	if n < 0 || n > math.MaxInt32 {
		panic("graph: node count out of range")
	}
	return &Undirected{n: n, nbr: make([][]int32, n), wt: make([][]float64, n)}
}

// Len returns the number of nodes.
func (g *Undirected) Len() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Undirected) NumEdges() int {
	total := 0
	for _, a := range g.nbr {
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
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
	return nil
}

func (g *Undirected) addHalf(u, v NodeID, w float64) {
	g.nbr[u] = append(g.nbr[u], int32(v))
	g.wt[u] = append(g.wt[u], w)
}

// carve gives every node u an empty neighbour row and weight row of
// capacity start[u+1]-start[u], cut from one backing array each at offset
// start[u], so growing one row later reallocates it instead of
// overwriting the next. It returns the backing arrays.
func (g *Undirected) carve(start []int32) ([]int32, []float64) {
	ids, ws := make([]int32, start[g.n]), make([]float64, start[g.n])
	for u := 0; u < g.n; u++ {
		if s, e := start[u], start[u+1]; e > s {
			g.nbr[u], g.wt[u] = ids[s:s:e], ws[s:s:e]
		}
	}
	return ids, ws
}

// NewUndirectedFromUpper returns the graph on n nodes whose edges are
// given as upper rows: upper[off[u]:off[u+1]] lists u's neighbours above
// u, in any order, each once, with the edge weights at the same positions
// of w. Every adjacency row comes out ascending by ID: the rows AddEdge
// builds from the edges in ascending (u, v) order. The rows are sorted by
// transposition instead of a per-row sort: scanning u ascending puts u
// into the row of each neighbour above it, which fills every row's part
// below its node in ascending order; scanning v ascending over those
// parts then appends v to the row of each neighbour below it, which fills
// the part above in ascending order. It panics on a neighbour that is not
// above its row's node, out of range, or listed twice: a caller bug.
func NewUndirectedFromUpper(n int, off, upper []int32, w []float64) *Undirected {
	g := NewUndirected(n)
	start := make([]int32, n+1)
	for u := 0; u < n; u++ {
		start[u+1] += off[u+1] - off[u]
		for _, v := range upper[off[u]:off[u+1]] {
			if int(v) <= u || int(v) >= n {
				panic(fmt.Sprintf("graph: upper row of node %d lists %d", u, v))
			}
			start[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	ids, ws := g.carve(start)
	// end[u] is where row u's next entry goes.
	end := slices.Clone(start[:n])
	for u := 0; u < n; u++ {
		for k := off[u]; k < off[u+1]; k++ {
			v := upper[k]
			p := end[v]
			if p > start[v] && ids[p-1] == int32(u) {
				panic(fmt.Sprintf("graph: upper row of node %d lists %d twice", u, v))
			}
			ids[p], ws[p] = int32(u), w[k]
			end[v]++
		}
	}
	for v := 0; v < n; v++ {
		// Row v holds only its part below v so far: the rest comes from
		// later v.
		for p := start[v]; p < end[v]; p++ {
			u := ids[p]
			ids[end[u]], ws[end[u]] = int32(v), ws[p]
			end[u]++
		}
	}
	for u := 0; u < n; u++ {
		g.nbr[u], g.wt[u] = g.nbr[u][:cap(g.nbr[u])], g.wt[u][:cap(g.wt[u])]
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
	i := g.find(u, v)
	if i < 0 {
		return false
	}
	g.nbr[u] = slices.Delete(g.nbr[u], i, i+1)
	g.wt[u] = slices.Delete(g.wt[u], i, i+1)
	return true
}

// find returns the position of v in u's adjacency row, or -1.
func (g *Undirected) find(u, v NodeID) int {
	if int(u) < 0 || int(u) >= g.n {
		return -1
	}
	for i, x := range g.nbr[u] {
		if NodeID(x) == v {
			return i
		}
	}
	return -1
}

// HasEdge reports whether edge u—v exists.
func (g *Undirected) HasEdge(u, v NodeID) bool { return g.find(u, v) >= 0 }

// Weight returns the weight of edge u—v, or an error if absent.
func (g *Undirected) Weight(u, v NodeID) (float64, error) {
	if i := g.find(u, v); i >= 0 {
		return g.wt[u][i], nil
	}
	return 0, fmt.Errorf("graph: no edge %d—%d", u, v)
}

// Neighbors returns the neighbors of u sorted by ID.
func (g *Undirected) Neighbors(u NodeID) []NodeID {
	out := make([]NodeID, len(g.nbr[u]))
	for i, v := range g.nbr[u] {
		out[i] = NodeID(v)
	}
	slices.Sort(out)
	return out
}

// Degree returns the number of neighbors of u.
func (g *Undirected) Degree(u NodeID) int { return len(g.nbr[u]) }

// Edges returns all undirected edges with U < V, sorted by (U, V).
func (g *Undirected) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for i, v := range g.nbr[u] {
			if NodeID(u) < NodeID(v) {
				out = append(out, Edge{U: NodeID(u), V: NodeID(v), W: g.wt[u][i]})
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
	start := make([]int32, g.n+1)
	for u, a := range g.nbr {
		start[u+1] = start[u] + int32(len(a))
	}
	c.carve(start)
	for u := range g.nbr {
		c.nbr[u] = append(c.nbr[u], g.nbr[u]...)
		c.wt[u] = append(c.wt[u], g.wt[u]...)
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

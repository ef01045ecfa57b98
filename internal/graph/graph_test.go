package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAddEdgeErrors(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(0, 1, 2); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Error("reversed duplicate edge accepted")
	}
}

func TestEdgeQueries(t *testing.T) {
	g := NewUndirected(4)
	mustAdd(t, g, 0, 1, 1.5)
	mustAdd(t, g, 1, 2, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge reported phantom edge")
	}
	if w, err := g.Weight(1, 2); err != nil || w != 2.5 {
		t.Errorf("Weight = %v, %v", w, err)
	}
	if _, err := g.Weight(0, 3); err == nil {
		t.Error("Weight of missing edge succeeded")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("Degree(1) = %d", d)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewUndirected(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge survived removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge returned true for missing edge")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewUndirected(5)
	mustAdd(t, g, 2, 4, 1)
	mustAdd(t, g, 2, 0, 1)
	mustAdd(t, g, 2, 3, 1)
	got := g.Neighbors(2)
	want := []NodeID{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := NewUndirected(4)
	mustAdd(t, g, 3, 1, 1)
	mustAdd(t, g, 2, 0, 1)
	mustAdd(t, g, 1, 0, 1)
	es := g.Edges()
	want := []Edge{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	g := NewUndirected(3)
	mustAdd(t, g, 0, 1, 1)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("Clone shares storage with original")
	}
}

func TestBFSDistancesAndPaths(t *testing.T) {
	// 0 - 1 - 2 - 3, plus shortcut 0 - 4 - 3.
	g := NewUndirected(5)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}} {
		mustAdd(t, g, e[0], e[1], 1)
	}
	tr := g.BFS(0)
	wantDist := []float64{0, 1, 2, 2, 1}
	for u, d := range wantDist {
		if tr.Dist[u] != d {
			t.Errorf("Dist[%d] = %v, want %v", u, tr.Dist[u], d)
		}
	}
	// Node 3's only distance-2 predecessor is 4 (via 2 would cost 3 hops).
	if tr.Parent[3] != 4 {
		t.Errorf("Parent[3] = %d, want 4", tr.Parent[3])
	}
	p, err := tr.PathTo(3)
	if err != nil || len(p) != 3 || p[0] != 0 || p[2] != 3 {
		t.Errorf("PathTo(3) = %v, %v", p, err)
	}
	if h, err := tr.Hops(3); h != 2 || err != nil {
		t.Errorf("Hops(3) = %d, %v", h, err)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := NewUndirected(3)
	mustAdd(t, g, 0, 1, 1)
	tr := g.BFS(0)
	if tr.Reachable(2) {
		t.Error("node 2 reported reachable")
	}
	if p, err := tr.PathTo(2); p != nil || err != nil {
		t.Errorf("PathTo(2) = %v, %v; want nil, nil", p, err)
	}
	if h, err := tr.Hops(2); h != -1 || err != nil {
		t.Errorf("Hops(2) = %d, %v; want -1, nil", h, err)
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Weighted shortcut: 0-1-2 costs 2, direct 0-2 costs 3.
	g := NewUndirected(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 3)
	tr := g.Dijkstra(0)
	if tr.Dist[2] != 2 {
		t.Errorf("Dist[2] = %v, want 2", tr.Dist[2])
	}
	if tr.Parent[2] != 1 {
		t.Errorf("Parent[2] = %d, want 1", tr.Parent[2])
	}
}

func TestDijkstraTiebreakSmallestParent(t *testing.T) {
	// Two equal-cost paths to node 3: via 1 and via 2.
	g := NewUndirected(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 1, 3, 1)
	mustAdd(t, g, 2, 3, 1)
	tr := g.Dijkstra(0)
	if tr.Parent[3] != 1 {
		t.Errorf("Parent[3] = %d, want 1 (smallest-ID tiebreak)", tr.Parent[3])
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					mustAdd(t, g, NodeID(u), NodeID(v), 1)
				}
			}
		}
		b := g.BFS(0)
		d := g.Dijkstra(0)
		for u := 0; u < n; u++ {
			if b.Dist[u] != d.Dist[u] && !(b.Dist[u] == Unreachable && d.Dist[u] == Unreachable) {
				t.Fatalf("trial %d: node %d BFS dist %v != Dijkstra dist %v", trial, u, b.Dist[u], d.Dist[u])
			}
			if b.Parent[u] != d.Parent[u] {
				t.Fatalf("trial %d: node %d BFS parent %v != Dijkstra parent %v (determinism)", trial, u, b.Parent[u], d.Parent[u])
			}
		}
	}
}

func TestDijkstraSuffixProperty(t *testing.T) {
	// Canonical-path suffix property: if w is on the path root->u, then the
	// path root->w is a prefix. This is what the routing layer relies on.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		g := randomConnected(rng, n)
		tr := g.Dijkstra(0)
		for u := 0; u < n; u++ {
			p, err := tr.PathTo(NodeID(u))
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range p {
				pw, err := tr.PathTo(w)
				if err != nil {
					t.Fatal(err)
				}
				if len(pw) != i+1 {
					t.Fatalf("prefix property violated at node %d via %d", u, w)
				}
				for j := range pw {
					if pw[j] != p[j] {
						t.Fatalf("prefix mismatch at node %d via %d", u, w)
					}
				}
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := NewUndirected(6)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 2, 3, 1)
	mustAdd(t, g, 3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Error("Connected returned true for disconnected graph")
	}
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 4, 5, 1)
	if !g.Connected() {
		t.Error("Connected returned false after joining")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !NewUndirected(0).Connected() || !NewUndirected(1).Connected() {
		t.Error("empty/singleton graphs should be connected")
	}
}

func randomConnected(rng *rand.Rand, n int) *Undirected {
	g := NewUndirected(n)
	// Random spanning tree first, then extra edges.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i]), NodeID(perm[rng.Intn(i)])
		g.AddEdge(u, v, 1+float64(rng.Intn(9)))
	}
	for k := 0; k < n; k++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 1+float64(rng.Intn(9)))
		}
	}
	return g
}

func mustAdd(t *testing.T, g *Undirected, u, v NodeID, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// TestWalkStopsAtQueriedLayer checks that a walk explores no further than
// its queries need: on a long line, asking for a node two hops out
// discovers nothing beyond it, and asking for layer 3 expands only the
// hop-2 node.
func TestWalkStopsAtQueriedLayer(t *testing.T) {
	g := NewUndirected(200)
	for u := 0; u+1 < g.Len(); u++ {
		mustAdd(t, g, NodeID(u), NodeID(u+1), 1)
	}
	w := g.Walk(0)
	if h := w.Hops(2); h != 2 || len(w.order) != 3 {
		t.Fatalf("Hops(2) = %d after discovering %d nodes, want 2 after 3", h, len(w.order))
	}
	if got := w.Layer(3); len(got) != 1 || got[0] != 3 || len(w.order) != 4 {
		t.Fatalf("Layer(3) = %v after discovering %d nodes, want [3] after 4", got, len(w.order))
	}
	if got := w.Layer(199); len(got) != 1 || got[0] != 199 {
		t.Fatalf("Layer(199) = %v", got)
	}
	if w.Layer(200) != nil {
		t.Fatal("Layer(200) non-nil past the end of the line")
	}
}

// NewUndirectedFromEdges builds the adjacency lists AddEdge builds from
// the same edges in the same order, and the lists it carves from one
// backing array stay independent when one of them grows or shrinks.
func TestNewUndirectedFromEdges(t *testing.T) {
	edges := []Edge{{0, 1, 1}, {0, 3, 2}, {1, 2, 3}, {2, 3, 4}, {1, 3, 5}}
	want := NewUndirected(5)
	for _, e := range edges {
		if err := want.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g := NewUndirectedFromEdges(5, edges)
	if !reflect.DeepEqual(g.nbr, want.nbr) || !reflect.DeepEqual(g.wt, want.wt) {
		t.Fatalf("adjacency %v %v, want %v %v", g.nbr, g.wt, want.nbr, want.wt)
	}
	if err := g.AddEdge(0, 2, 6); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(2, 3)
	if err := want.AddEdge(0, 2, 6); err != nil {
		t.Fatal(err)
	}
	want.RemoveEdge(2, 3)
	if !reflect.DeepEqual(g.nbr, want.nbr) || !reflect.DeepEqual(g.wt, want.wt) {
		t.Fatalf("after mutation: adjacency %v %v, want %v %v", g.nbr, g.wt, want.nbr, want.wt)
	}
}

package routing

import (
	"testing"

	"m2m/internal/graph"
	"m2m/internal/topology"
)

// TestStackedNodesHaveNoParentCycle is the regression test for Dijkstra's
// equal-distance branch on zero-weight links. The evaluation layout
// stacks 17, 44, 52 and 53 on one corner and 28 and 37 on another, so
// their links weigh 0. Re-parenting a finalized node across such a link
// made 17↔44 and 28↔37 each other's parents in the tree rooted at 53,
// and a parent climb from 11 then never reached the root.
func TestStackedNodesHaveNoParentCycle(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	tr := g.Dijkstra(53)
	for _, pair := range [][2]graph.NodeID{{17, 44}, {28, 37}} {
		a, b := pair[0], pair[1]
		if tr.Parent[a] == b && tr.Parent[b] == a {
			t.Errorf("Dijkstra(53): %d and %d are each other's parents", a, b)
		}
	}
	for u := 0; u < g.Len(); u++ {
		if _, err := tr.PathTo(graph.NodeID(u)); err != nil {
			t.Errorf("Dijkstra(53): %v", err)
		}
	}
	p, err := NewWeightedReversePath(g).Path(11, 53)
	if err != nil {
		t.Fatal(err)
	}
	checkRoute(t, g, "weighted-reverse-path", 11, 53, p, true)
}

// TestTreePathIntoRejectsBrokenPointers checks that a parent cycle makes
// the tree climb fail instead of loop.
func TestTreePathIntoRejectsBrokenPointers(t *testing.T) {
	// 1 and 2 claim each other as parents at equal depth; 0 is the root.
	parent := []graph.NodeID{0, 2, 1, 0}
	depth := []int32{0, 1, 1, 1}
	if p, err := treePathInto(nil, parent, depth, 1, 3); err == nil {
		t.Fatalf("treePathInto on a parent cycle = %v, want an error", p)
	}
}

// FuzzRouterPaths decodes a small graph and asks every shipped router for
// the route of every ordered pair. The graphs have zero-weight links
// (stacked nodes), isolated slots and disconnected parts. Every call must
// return; a returned route must be simple, run from the source to the
// destination over real links (milestone hops excepted), and pass the
// per-destination suffix check. Routers that need no spanning tree must
// route every connected pair.
//
// Encoding: data[0] picks the node count (1..12), then each 3-byte group
// adds a link u—v of weight (w mod 5)/2; self-loops and duplicates are
// skipped.
func FuzzRouterPaths(f *testing.F) {
	// Two stacked nodes (0 and 1) one hop from a root with a larger ID:
	// Dijkstra(2) used to make 0 and 1 each other's parents.
	f.Add([]byte{3, 0, 1, 0, 0, 2, 2, 1, 2, 2})
	// A stacked trio, a chain and an isolated slot (node 6).
	f.Add([]byte{7, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 3, 2, 3, 4, 1, 4, 5, 2, 5, 0, 3})
	// Two parts joined by nothing.
	f.Add([]byte{6, 0, 1, 2, 1, 2, 2, 3, 4, 0, 4, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		g := graph.NewUndirected(n)
		for i := 1; i+2 < len(data); i += 3 {
			u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v, float64(data[i+2]%5)/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAllRouters(t, g)
	})
}

// checkAllRouters routes every ordered pair of g through every shipped
// router and checks each route it returns.
func checkAllRouters(t *testing.T, g *graph.Undirected) {
	t.Helper()
	type shipped struct {
		r Router
		// total: the router routes every connected pair (the tree routers
		// need both ends inside their spanning tree instead).
		total bool
		// suffix: the router claims the per-destination suffix property;
		// SourceSPT does not, and NewInstance rejects it where it breaks.
		suffix bool
	}
	routers := []shipped{
		{NewReversePath(g), true, true},
		{NewWeightedReversePath(g), true, true},
		{NewMilestoneRouter(g, NewReversePath(g), KeepEveryKth(2)), true, true},
		{NewSourceSPT(g), true, false},
	}
	if st, err := NewSharedTree(g); err == nil {
		routers = append(routers, shipped{st, false, true})
	}
	if mt, err := NewMinDegreeTree(g); err == nil {
		routers = append(routers, shipped{mt, false, true})
	}
	n := g.Len()
	sc := NewSuffixChecker(n)
	for _, rt := range routers {
		for d := 0; d < n; d++ {
			dest := graph.NodeID(d)
			walk := g.Walk(dest)
			sc.Begin(dest)
			for s := 0; s < n; s++ {
				src := graph.NodeID(s)
				p, err := rt.r.Path(src, dest)
				connected := walk.Hops(src) >= 0
				inTree := g.Degree(src) > 0 && g.Degree(dest) > 0
				switch {
				case err != nil && connected && (rt.total || inTree):
					t.Fatalf("%s: %d→%d: %v", rt.r.Name(), s, d, err)
				case err != nil:
					continue
				case !connected:
					t.Fatalf("%s: routed %d→%d across disconnected parts: %v", rt.r.Name(), s, d, p)
				}
				checkRoute(t, g, rt.r.Name(), src, dest, p, rt.r.Name() != "milestone(reverse-path)")
				if rt.suffix {
					if err := sc.Add(p); err != nil {
						t.Fatalf("%s: %v", rt.r.Name(), err)
					}
				}
			}
		}
	}
}

// checkRoute checks that p is a simple route from s to d; with links set,
// consecutive nodes must be neighbours in g.
func checkRoute(t *testing.T, g *graph.Undirected, name string, s, d graph.NodeID, p []graph.NodeID, links bool) {
	t.Helper()
	if len(p) == 0 || p[0] != s || p[len(p)-1] != d {
		t.Fatalf("%s: route %v does not run %d→%d", name, p, s, d)
	}
	seen := make([]bool, g.Len())
	for i, v := range p {
		if seen[v] {
			t.Fatalf("%s: route %v revisits %d", name, p, v)
		}
		seen[v] = true
		if links && i > 0 && !g.HasEdge(p[i-1], v) {
			t.Fatalf("%s: route %v hops %d→%d without a link", name, p, p[i-1], v)
		}
	}
}

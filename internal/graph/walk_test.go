package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"m2m/internal/geom"
	"m2m/internal/graph"
	"m2m/internal/topology"
)

// refBFS is the reference the walk is checked against: a plain
// whole-graph BFS for hop counts, then each node's parent picked as its
// smallest-ID neighbour one hop closer. Unreachable nodes get hop -1 and
// parent -1; the root is its own parent.
func refBFS(g *graph.Undirected, root graph.NodeID) (hops []int, parent []graph.NodeID) {
	hops = make([]int, g.Len())
	parent = make([]graph.NodeID, g.Len())
	for i := range hops {
		hops[i], parent[i] = -1, -1
	}
	hops[root] = 0
	for queue := []graph.NodeID{root}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Neighbors(queue[0]) {
			if hops[v] < 0 {
				hops[v] = hops[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	for v := range hops {
		if hops[v] == 0 {
			parent[v] = graph.NodeID(v)
		}
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if hops[v] > 0 && hops[u] == hops[v]-1 {
				parent[v] = u
				break // Neighbors is ascending
			}
		}
	}
	return hops, parent
}

type namedGraph struct {
	name string
	g    *graph.Undirected
}

func walkNetworks() []namedGraph {
	// Far-apart clusters without the connectivity repair, plus node IDs
	// past the last cluster that have no edges at all.
	split := topology.Clustered(150, geom.NewRect(0, 0, 1500, 1500), 5, 20, 7).ConnectivityGraph(50)
	disconnected := graph.NewUndirected(split.Len() + 3)
	for _, e := range split.Edges() {
		if err := disconnected.AddEdge(e.U, e.V, e.W); err != nil {
			panic(err)
		}
	}
	_, random := topology.Scaled(400, 1)
	_, clustered := topology.ScaledClustered(400, 2)
	return []namedGraph{
		{"random", random},
		{"clustered", clustered},
		{"grid", topology.Grid(17, 13, 10).ConnectivityGraph(15)},
		{"disconnected", disconnected},
	}
}

// TestWalkMatchesReference queries the walk far nodes first, in shuffled
// order within each distance, and compares every node's hop count and
// parent with the reference; it also checks the layers, the
// eccentricity, and that BFS, the walk run to exhaustion, agrees.
func TestWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nw := range walkNetworks() {
		name, g, n := nw.name, nw.g, nw.g.Len()
		roots := []graph.NodeID{0, graph.NodeID(n - 1), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		for _, root := range roots {
			hops, parent := refBFS(g, root)
			far := func(v graph.NodeID) int {
				if hops[v] < 0 {
					return n // unreachable first: the walk must exhaust the component
				}
				return hops[v]
			}
			order := make([]graph.NodeID, n)
			for i := range order {
				order[i] = graph.NodeID(i)
			}
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			sort.SliceStable(order, func(i, j int) bool { return far(order[i]) > far(order[j]) })

			w := g.Walk(root)
			for i, v := range order {
				// Alternate which query reaches an undiscovered node first.
				var h int
				var p graph.NodeID
				if i%2 == 0 {
					h, p = w.Hops(v), w.Parent(v)
				} else {
					p, h = w.Parent(v), w.Hops(v)
				}
				if h != hops[v] || p != parent[v] {
					t.Fatalf("%s root %d node %d: walk (hops %d, parent %d), reference (%d, %d)",
						name, root, v, h, p, hops[v], parent[v])
				}
			}

			tr := g.BFS(root)
			for v := range hops {
				if h, err := tr.Hops(graph.NodeID(v)); h != hops[v] || err != nil || tr.Parent[v] != parent[v] {
					t.Fatalf("%s root %d node %d: BFS (hops %d, %v, parent %d), reference (%d, %d)",
						name, root, v, h, err, tr.Parent[v], hops[v], parent[v])
				}
				if hops[v] < 0 && tr.Reachable(graph.NodeID(v)) {
					t.Fatalf("%s root %d: BFS reports unreachable node %d reachable", name, root, v)
				}
			}

			// Layers, asked for out of order on a fresh walk.
			maxHop := slices.Max(hops)
			lw := g.Walk(root)
			hs := rng.Perm(maxHop + 3)
			for _, h := range hs {
				var want []graph.NodeID
				for v, hv := range hops {
					if hv == h {
						want = append(want, graph.NodeID(v))
					}
				}
				got := slices.Clone(lw.Layer(h))
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s root %d: Layer(%d) = %v, want %v", name, root, h, got, want)
				}
			}
			if lw.Layer(-1) != nil {
				t.Fatalf("%s root %d: Layer(-1) non-nil", name, root)
			}
			if e := g.Walk(root).Eccentricity(); e != maxHop {
				t.Fatalf("%s root %d: Eccentricity() = %d, want %d", name, root, e, maxHop)
			}
		}
	}
}

// BenchmarkBFS times a whole-network walk: the base station's tree that
// table dissemination and out-of-network delivery route along.
func BenchmarkBFS(b *testing.B) {
	_, g := topology.Scaled(10000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.BFS(0).Reachable(graph.NodeID(g.Len() - 1)) {
			b.Fatal("unreachable")
		}
	}
}

// TestWalkResetMatchesFreshWalk resets one walk from root to root, after
// partial and after full exploration, and checks each reset walk and its
// eccentricity against the reference of its new root.
func TestWalkResetMatchesFreshWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nw := range walkNetworks() {
		g, n := nw.g, nw.g.Len()
		w := g.Walk(0)
		for trial := 0; trial < 6; trial++ {
			root := graph.NodeID(rng.Intn(n))
			w.Reset(root)
			if w.Root() != root {
				t.Fatalf("%s: Root() = %d after Reset(%d)", nw.name, w.Root(), root)
			}
			hops, parent := refBFS(g, root)
			// Odd trials explore only a few nodes, so the next reset
			// starts from a partial walk.
			limit := n
			if trial%2 == 1 {
				limit = 5
			}
			for _, v := range rng.Perm(n)[:limit] {
				if h, p := w.Hops(graph.NodeID(v)), w.Parent(graph.NodeID(v)); h != hops[v] || p != parent[v] {
					t.Fatalf("%s root %d node %d: reset walk (hops %d, parent %d), reference (%d, %d)",
						nw.name, root, v, h, p, hops[v], parent[v])
				}
			}
			if e, want := w.Eccentricity(), slices.Max(hops); e != want {
				t.Fatalf("%s root %d: Eccentricity() = %d after a reset, want %d", nw.name, root, e, want)
			}
		}
	}
}

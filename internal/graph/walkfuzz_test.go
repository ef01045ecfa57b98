package graph_test

import (
	"slices"
	"testing"

	"m2m/internal/graph"
)

// adjModel is the fuzz reference's own adjacency lists, kept in the order
// the graph must keep them: an added edge goes to the end of both
// endpoints' lists, and a removed one leaves the others in order.
type adjModel [][]graph.NodeID

func (m adjModel) add(u, v graph.NodeID) {
	m[u] = append(m[u], v)
	m[v] = append(m[v], u)
}

func (m adjModel) remove(u, v graph.NodeID) {
	m[u] = slices.DeleteFunc(m[u], func(x graph.NodeID) bool { return x == v })
	m[v] = slices.DeleteFunc(m[v], func(x graph.NodeID) bool { return x == u })
}

// walkRef is a plain queue BFS over the model from root: hop counts
// (-1 if unreachable), parents (each node's smallest-ID neighbour one hop
// closer; the root is its own, -1 if unreachable) and the layers in
// discovery order.
func walkRef(m adjModel, root graph.NodeID) (hops []int, parent []graph.NodeID, layers [][]graph.NodeID) {
	hops = make([]int, len(m))
	parent = make([]graph.NodeID, len(m))
	for i := range hops {
		hops[i], parent[i] = -1, -1
	}
	hops[root], parent[root] = 0, root
	queue := []graph.NodeID{root}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, v := range m[u] {
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for _, v := range queue {
		h := hops[v]
		if h == len(layers) {
			layers = append(layers, nil)
		}
		layers[h] = append(layers[h], v)
		for _, u := range m[v] {
			if h > 0 && hops[u] == h-1 && (parent[v] < 0 || u < parent[v]) {
				parent[v] = u
			}
		}
	}
	return hops, parent, layers
}

// FuzzWalk checks Walk and BFS against walkRef on small decoded graphs
// with zero-weight links, isolated nodes and edits. Every node is a root
// once: a fresh walk answers Hops and Parent far nodes first, another
// answers AppendClimb the same way, another answers Layer deepest first,
// and one walk reset from root to root answers Eccentricity.
//
// Encoding: data[0] picks the node count (1..12) and data[1] how many of
// the 3-byte groups that follow build the graph through AddEdge; each
// later group edits it. A group (a, b, c)
// names the link a—b (mod n); a building group adds it with weight
// (c mod 5)/2 unless it is a self-loop or a duplicate, and an editing
// group removes it if c is odd and adds it otherwise.
func FuzzWalk(f *testing.F) {
	// A line 0—1—2—3 built first, then 1—3 added by an edit: 3's row
	// grows after the build.
	f.Add([]byte{3, 3, 0, 1, 2, 1, 2, 0, 2, 3, 4, 1, 3, 0})
	// Stacked nodes 0, 1 and 3 (zero-weight links) and four isolated
	// nodes.
	f.Add([]byte{6, 3, 0, 1, 0, 1, 3, 2, 0, 3, 0})
	// A cycle whose first link is removed and added back, which moves
	// it to the end of both rows and changes the discovery order.
	f.Add([]byte{4, 5, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 4, 2, 4, 0, 2, 0, 1, 1, 1, 0, 0})
	// A star whose first link is removed: the rest of the centre's row
	// keeps its order, and so does layer 1 from the centre.
	f.Add([]byte{3, 3, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 1, 1})
	// Two parts joined by nothing, edited one link at a time.
	f.Add([]byte{8, 2, 0, 1, 0, 4, 5, 1, 1, 2, 0, 5, 6, 0, 0, 1, 3, 6, 7, 2})
	// One node, no links.
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%12
		groups := data[2:]
		link := func(k int) (u, v graph.NodeID, c byte) {
			return graph.NodeID(int(groups[3*k]) % n), graph.NodeID(int(groups[3*k+1]) % n), groups[3*k+2]
		}
		model := make(adjModel, n)
		build := min(int(data[1]), len(groups)/3)
		g := graph.NewUndirected(n)
		for k := 0; k < build; k++ {
			if u, v, c := link(k); u != v && !slices.Contains(model[u], v) {
				if err := g.AddEdge(u, v, float64(c%5)/2); err != nil {
					t.Fatal(err)
				}
				model.add(u, v)
			}
		}
		for k := build; k < len(groups)/3; k++ {
			u, v, c := link(k)
			has := slices.Contains(model[u], v)
			switch {
			case c%2 == 1:
				if g.RemoveEdge(u, v) != has {
					t.Fatalf("RemoveEdge(%d, %d) disagrees with the model %v", u, v, model)
				}
				model.remove(u, v)
			case (g.AddEdge(u, v, float64(c%5)/2) == nil) != (u != v && !has):
				t.Fatalf("AddEdge(%d, %d) disagrees with the model %v", u, v, model)
			case u != v && !has:
				model.add(u, v)
			}
		}
		for u := range model {
			if g.Degree(graph.NodeID(u)) != len(model[u]) {
				t.Fatalf("Degree(%d) = %d, model %v", u, g.Degree(graph.NodeID(u)), model[u])
			}
		}

		reused := g.Walk(0)
		for r := 0; r < n; r++ {
			root := graph.NodeID(r)
			hops, parent, layers := walkRef(model, root)

			w := g.Walk(root)
			for v := n - 1; v >= 0; v-- {
				if h, p := w.Hops(graph.NodeID(v)), w.Parent(graph.NodeID(v)); h != hops[v] || p != parent[v] {
					t.Fatalf("root %d node %d: walk (hops %d, parent %d), reference (%d, %d)", root, v, h, p, hops[v], parent[v])
				}
			}
			tr := g.BFS(root)
			for v := range hops {
				if h, err := tr.Hops(graph.NodeID(v)); h != hops[v] || err != nil || tr.Parent[v] != parent[v] {
					t.Fatalf("root %d node %d: BFS (hops %d, %v, parent %d), reference (%d, %d)", root, v, h, err, tr.Parent[v], hops[v], parent[v])
				}
			}

			cw := g.Walk(root)
			for v := n - 1; v >= 0; v-- {
				var want []graph.NodeID
				for u := graph.NodeID(v); hops[v] >= 0 && len(want) <= hops[v]; u = parent[u] {
					want = append(want, u)
				}
				got, ok := cw.AppendClimb(nil, graph.NodeID(v))
				if ok != (hops[v] >= 0) || !slices.Equal(got, want) {
					t.Fatalf("root %d: AppendClimb(%d) = %v, %v, reference %v", root, v, got, ok, want)
				}
			}

			lw := g.Walk(root)
			for h := len(layers); h >= -1; h-- {
				var want []graph.NodeID
				if h >= 0 && h < len(layers) {
					want = layers[h]
				}
				if got := lw.Layer(h); !slices.Equal(got, want) {
					t.Fatalf("root %d: Layer(%d) = %v, reference %v", root, h, got, want)
				}
			}

			reused.Reset(root)
			if e := reused.Eccentricity(); e != len(layers)-1 {
				t.Fatalf("root %d: Eccentricity() = %d after a reset, reference %d", root, e, len(layers)-1)
			}
		}
	})
}

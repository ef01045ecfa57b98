package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"m2m/internal/geom"
	"m2m/internal/graph"
	"m2m/internal/topology"
)

func TestReversePathSimple(t *testing.T) {
	g := lineGraph(5)
	r := NewReversePath(g)
	p, err := r.Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Errorf("path = %v", p)
	}
	self, err := r.Path(3, 3)
	if err != nil || len(self) != 1 || self[0] != 3 {
		t.Errorf("self path = %v, %v", self, err)
	}
}

func TestReversePathErrors(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	r := NewReversePath(g)
	if _, err := r.Path(0, 2); err == nil {
		t.Error("unreachable pair accepted")
	}
	if _, err := r.Path(0, 5); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := r.Path(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
}

func TestReversePathSuffixProperty(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	r := NewReversePath(g)
	rng := rand.New(rand.NewSource(9))
	byDest := make(map[graph.NodeID][][]graph.NodeID)
	for trial := 0; trial < 400; trial++ {
		s := graph.NodeID(rng.Intn(g.Len()))
		d := graph.NodeID(rng.Intn(g.Len()))
		p, err := r.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		byDest[d] = append(byDest[d], p)
	}
	if err := checkSuffixProperty(byDest); err != nil {
		t.Errorf("reverse-path violated suffix property: %v", err)
	}
}

func TestSharedTreeRouterSuffixProperty(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	st, err := NewSharedTree(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	byDest := make(map[graph.NodeID][][]graph.NodeID)
	for trial := 0; trial < 400; trial++ {
		s := graph.NodeID(rng.Intn(g.Len()))
		d := graph.NodeID(rng.Intn(g.Len()))
		p, err := st.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != s || p[len(p)-1] != d {
			t.Fatalf("endpoints wrong: %v", p)
		}
		byDest[d] = append(byDest[d], p)
	}
	if err := checkSuffixProperty(byDest); err != nil {
		t.Errorf("shared-tree violated suffix property: %v", err)
	}
}

func TestSharedTreePathsAreSymmetricReversals(t *testing.T) {
	// In a tree, the s→d path is the reverse of the d→s path.
	_, g := topology.GreatDuckIsland()
	st, err := NewSharedTree(g)
	if err != nil {
		t.Fatal(err)
	}
	for s := graph.NodeID(0); s < 10; s++ {
		for d := graph.NodeID(20); d < 30; d++ {
			a, err := st.Path(s, d)
			if err != nil {
				t.Fatal(err)
			}
			b, err := st.Path(d, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("asymmetric lengths for %d↔%d", s, d)
			}
			for i := range a {
				if a[i] != b[len(b)-1-i] {
					t.Fatalf("path %d→%d not the reverse of %d→%d", s, d, d, s)
				}
			}
		}
	}
}

func TestCheckSuffixPropertyDetectsViolation(t *testing.T) {
	byDest := map[graph.NodeID][][]graph.NodeID{
		5: {
			{1, 2, 5},
			{3, 2, 4, 5}, // node 2 goes to 4 here but 5 above
		},
	}
	if err := checkSuffixProperty(byDest); err == nil {
		t.Error("divergent suffixes accepted")
	}
	bad := map[graph.NodeID][][]graph.NodeID{5: {{1, 2}}}
	if err := checkSuffixProperty(bad); err == nil {
		t.Error("path not ending at destination accepted")
	}
}

func TestReversePathsAreShortest(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	r := NewReversePath(g)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		s := graph.NodeID(rng.Intn(g.Len()))
		d := graph.NodeID(rng.Intn(g.Len()))
		p, err := r.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Walk(s).Hops(d)
		if len(p)-1 != want {
			t.Fatalf("path %d→%d has %d hops, shortest is %d", s, d, len(p)-1, want)
		}
	}
}

// refReversePath is the whole-network reference for ReversePath: hop
// counts from d by a plain BFS, then a climb from s that always steps to
// the smallest-ID neighbour one hop closer to d.
func refReversePath(g *graph.Undirected, s, d graph.NodeID) ([]graph.NodeID, error) {
	hops := make([]int, g.Len())
	for i := range hops {
		hops[i] = -1
	}
	hops[d] = 0
	for queue := []graph.NodeID{d}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Neighbors(queue[0]) {
			if hops[v] < 0 {
				hops[v] = hops[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	if hops[s] < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d", d, s)
	}
	path := []graph.NodeID{s}
	for v := s; v != d; path = append(path, v) {
		for _, u := range g.Neighbors(v) { // ascending
			if hops[u] == hops[v]-1 {
				v = u
				break
			}
		}
	}
	return path, nil
}

// TestReversePathMatchesReference routes every pair toward a few
// destinations, far sources first, and checks each path and each
// "unreachable" error against the whole-network reference.
func TestReversePathMatchesReference(t *testing.T) {
	split := topology.Clustered(120, geom.NewRect(0, 0, 1500, 1500), 4, 20, 5).ConnectivityGraph(50)
	_, gdi := topology.GreatDuckIsland()
	_, random := topology.Scaled(300, 1)
	_, clustered := topology.ScaledClustered(300, 2)
	nets := []struct {
		name string
		g    *graph.Undirected
	}{
		{"gdi", gdi},
		{"random", random},
		{"clustered", clustered},
		{"grid", topology.Grid(12, 9, 10).ConnectivityGraph(15)},
		{"split", split},
	}
	rng := rand.New(rand.NewSource(4))
	for _, nw := range nets {
		name, g := nw.name, nw.g
		r := NewReversePath(g)
		type pair struct{ s, d graph.NodeID }
		var pairs []pair
		for k := 0; k < 4; k++ {
			d := graph.NodeID(rng.Intn(g.Len()))
			for s := 0; s < g.Len(); s++ {
				pairs = append(pairs, pair{graph.NodeID(s), d})
			}
		}
		// Far (and unreachable) sources first, so the walks must grow
		// past nodes that later queries land on.
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		type result struct {
			path []graph.NodeID
			err  error
		}
		want := make(map[pair]result, len(pairs))
		reach := func(p pair) int {
			if want[p].err != nil {
				return g.Len() + 1
			}
			return len(want[p].path)
		}
		for _, p := range pairs {
			path, err := refReversePath(g, p.s, p.d)
			want[p] = result{path, err}
		}
		sort.SliceStable(pairs, func(i, j int) bool { return reach(pairs[i]) > reach(pairs[j]) })
		unreachable := 0
		for _, p := range pairs {
			got, err := r.Path(p.s, p.d)
			if w := want[p]; w.err != nil {
				unreachable++
				if err == nil || err.Error() != w.err.Error() {
					t.Fatalf("%s %d→%d: error %v, want %v", name, p.s, p.d, err, w.err)
				}
			} else if err != nil || !slices.Equal(got, w.path) {
				t.Fatalf("%s %d→%d: path %v (%v), want %v", name, p.s, p.d, got, err, w.path)
			}
		}
		if name == "split" && unreachable == 0 {
			t.Fatal("split network: no unreachable pair exercised")
		}
	}
}

// TestReversePathReusesWalkAcrossDestinations routes toward destinations
// A, B and A again through one router, whose single walk is reset between
// destinations, and compares every path with a fresh router's.
func TestReversePathReusesWalkAcrossDestinations(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	rng := rand.New(rand.NewSource(11))
	shared := NewReversePath(g)
	for _, d := range []graph.NodeID{3, 40, 3} {
		fresh := NewReversePath(g)
		for _, s := range rng.Perm(g.Len())[:20] {
			got, err := shared.Path(graph.NodeID(s), d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Path(graph.NodeID(s), d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("path %d→%d = %v after reuse, fresh router gives %v", s, d, got, want)
			}
		}
	}
}

// checkSuffixProperty runs a SuffixChecker over paths grouped by
// destination, in ascending destination order, and returns the first
// violation, or nil.
func checkSuffixProperty(pathsByDest map[graph.NodeID][][]graph.NodeID) error {
	n := 0
	for d, paths := range pathsByDest {
		n = max(n, int(d)+1)
		for _, p := range paths {
			for _, v := range p {
				n = max(n, int(v)+1)
			}
		}
	}
	dests := make([]graph.NodeID, 0, len(pathsByDest))
	for d := range pathsByDest {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	c := NewSuffixChecker(n)
	for _, d := range dests {
		c.Begin(d)
		for _, p := range pathsByDest[d] {
			if err := c.Add(p); err != nil {
				return err
			}
		}
	}
	return nil
}

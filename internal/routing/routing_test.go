package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/topology"
)

// lineGraph builds 0-1-2-...-(n-1).
func lineGraph(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

// checkSharing verifies the paper's path-sharing restriction over a set of
// canonical paths: every ordered node pair (i, j) that two paths connect,
// i before j, must be connected by the same i→j sub-path. It returns the
// first conflict found, or nil.
func checkSharing(paths [][]graph.NodeID) error {
	type key struct{ from, to graph.NodeID }
	seen := make(map[key]string)
	for _, p := range paths {
		for i := range p {
			for j := i + 1; j < len(p); j++ {
				k := key{from: p[i], to: p[j]}
				sig := fmt.Sprint(p[i : j+1])
				if prev, ok := seen[k]; ok && prev != sig {
					return fmt.Errorf("sharing violated for %d→%d: %s vs %s", k.from, k.to, prev, sig)
				}
				seen[k] = sig
			}
		}
	}
	return nil
}

func TestSPTLine(t *testing.T) {
	p, err := NewSourceSPT(lineGraph(5)).Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []graph.NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("path = %v", p)
	}
}

func TestSPTBranching(t *testing.T) {
	//      1 - 3
	// 0 <
	//      2 - 4
	g := graph.NewUndirected(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 4, 1)
	r := NewSourceSPT(g)
	for d, want := range map[graph.NodeID][]graph.NodeID{3: {0, 1, 3}, 4: {0, 2, 4}} {
		if p, err := r.Path(0, d); err != nil || !slices.Equal(p, want) {
			t.Errorf("path 0→%d = %v, %v; want %v", d, p, err, want)
		}
	}
}

func TestSPTUnreachableDest(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	if _, err := NewSourceSPT(g).Path(0, 2); err == nil {
		t.Error("unreachable destination accepted")
	}
}

// TestSourceIsAlsoDest checks the Router contract for s == d on every
// router: a node may be both a source and a destination (paper,
// Section 2.2).
func TestSourceIsAlsoDest(t *testing.T) {
	g := lineGraph(3)
	st, err := NewSharedTree(g)
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewMinDegreeTree(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Router{st, md, NewReversePath(g), NewWeightedReversePath(g), NewSourceSPT(g),
		NewMilestoneRouter(g, NewReversePath(g), KeepNone)} {
		if p, err := r.Path(0, 0); err != nil || !slices.Equal(p, []graph.NodeID{0}) {
			t.Errorf("%s: Path(0, 0) = %v, %v", r.Name(), p, err)
		}
	}
}

// TestSharedTreeSatisfiesSharing checks the full path-sharing restriction
// (not only the per-destination suffix property) on the routers that
// claim it on any graph, over random pairs on the evaluation network.
// WeightedReversePath claims it only for exact (integer) weights.
func TestSharedTreeSatisfiesSharing(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	st, err := NewSharedTree(g)
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewMinDegreeTree(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Router{st, md, NewReversePath(g), NewMilestoneRouter(g, NewReversePath(g), KeepEveryKth(3))} {
		rng := rand.New(rand.NewSource(1))
		var paths [][]graph.NodeID
		for trial := 0; trial < 300; trial++ {
			p, err := r.Path(graph.NodeID(rng.Intn(g.Len())), graph.NodeID(rng.Intn(g.Len())))
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		if err := checkSharing(paths); err != nil {
			t.Errorf("%s: %v", r.Name(), err)
		}
	}
}

func TestSharedTreePathEndpoints(t *testing.T) {
	st, err := NewSharedTree(lineGraph(7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Path(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []graph.NodeID{5, 4, 3, 2, 1}) {
		t.Errorf("path = %v", p)
	}
}

func TestCheckSharingDetectsViolation(t *testing.T) {
	// Two paths disagreeing on the 0→3 sub-path: 0-1-3 vs 0-2-3.
	a, b := []graph.NodeID{0, 1, 3}, []graph.NodeID{0, 2, 3}
	if err := checkSharing([][]graph.NodeID{a, b}); err == nil {
		t.Error("sharing violation not detected")
	}
	if err := checkSharing([][]graph.NodeID{a, a}); err != nil {
		t.Errorf("identical paths flagged: %v", err)
	}
}

func TestSPTDeterministic(t *testing.T) {
	_, g := topology.GreatDuckIsland()
	dests := []graph.NodeID{10, 20, 30, 40}
	a := NewSourceSPT(g)
	for i := 0; i < 5; i++ {
		b := NewSourceSPT(g)
		for _, d := range dests {
			pa, err := a.Path(5, d)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.Path(5, d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pa, pb) {
				t.Fatalf("nondeterministic path 5→%d: %v vs %v", d, pa, pb)
			}
		}
	}
}

// TestSPTDistanceVariant checks that the hop-count and the
// distance-weighted shortest-path routers differ where hops and weights
// disagree: 0-1 (1), 1-2 (1), 0-2 (5).
func TestSPTDistanceVariant(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	hops, err := NewReversePath(g).Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewWeightedReversePath(g).Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Errorf("hop path = %v", hops)
	}
	if len(dist) != 3 {
		t.Errorf("dist path = %v", dist)
	}
}

func TestContractKeepNone(t *testing.T) {
	g := lineGraph(6)
	mr := NewMilestoneRouter(g, NewReversePath(g), KeepNone)
	p, err := mr.Path(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []graph.NodeID{0, 5}) {
		t.Fatalf("virtual path = %v", p)
	}
	if h := mr.EdgeHops(Edge{From: 0, To: 5}); h != 5 {
		t.Errorf("EdgeHops = %d", h)
	}
}

func TestContractKeepAllIsIdentity(t *testing.T) {
	g := lineGraph(5)
	inner := NewReversePath(g)
	mr := NewMilestoneRouter(g, inner, KeepAll)
	p, err := mr.Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inner.Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, want) {
		t.Fatalf("contracted path %v differs from %v", p, want)
	}
	for i := 0; i+1 < len(p); i++ {
		if h := mr.EdgeHops(Edge{From: p[i], To: p[i+1]}); h != 1 {
			t.Errorf("edge %d→%d has %d physical hops", p[i], p[i+1], h)
		}
	}
}

func TestContractPreservesBranching(t *testing.T) {
	//       1 - 2 - 3(dest)
	// 0 <
	//       4 - 5 - 6(dest)
	g := graph.NewUndirected(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 6, 1)
	keepOnly2 := func(n graph.NodeID) bool { return n == 2 }
	mr := NewMilestoneRouter(g, NewReversePath(g), keepOnly2)
	// Virtual nodes: 0 (src), 2 (milestone), 3, 6 (dests).
	for d, want := range map[graph.NodeID][]graph.NodeID{3: {0, 2, 3}, 6: {0, 6}} {
		p, err := mr.Path(0, d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p, want) {
			t.Errorf("virtual path 0→%d = %v, want %v", d, p, want)
		}
	}
	if h := mr.EdgeHops(Edge{From: 0, To: 6}); h != 3 {
		t.Errorf("0→6 hops = %d", h)
	}
}

func TestKeepEveryKth(t *testing.T) {
	if !KeepAll(5) || KeepNone(5) {
		t.Error("KeepAll/KeepNone wrong")
	}
	k1 := KeepEveryKth(1)
	for n := 0; n < 50; n++ {
		if !k1(graph.NodeID(n)) {
			t.Fatal("stride 1 must keep everything")
		}
	}
	k4 := KeepEveryKth(4)
	kept := 0
	for n := 0; n < 1000; n++ {
		if k4(graph.NodeID(n)) {
			kept++
		}
	}
	if kept < 150 || kept > 350 {
		t.Errorf("stride 4 kept %d of 1000 (expected ≈250)", kept)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive stride accepted")
		}
	}()
	KeepEveryKth(0)
}

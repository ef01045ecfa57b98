package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/topology"
)

// star returns a hub-and-spokes graph with extra rim edges so a
// low-degree alternative to the hub exists.
func star(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	for i := 1; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g.AddEdge(graph.NodeID(n-1), 1, 1)
	return g
}

func isSpanningTree(t *testing.T, b *MinDegreeTree, net *graph.Undirected) {
	t.Helper()
	n := net.Len()
	root := b.global.Root
	edges := 0
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		if !b.global.Reachable(id) {
			t.Fatalf("node %d not spanned", u)
		}
		if id == root {
			continue
		}
		p := b.global.Parent[u]
		if !net.HasEdge(id, p) {
			t.Fatalf("tree edge %d—%d not a network edge", u, p)
		}
		edges++
	}
	if edges != n-1 {
		t.Fatalf("%d tree edges for %d nodes", edges, n)
	}
}

func TestMinDegreeReducesHub(t *testing.T) {
	net := star(10)
	mt, err := NewMinDegreeTree(net)
	if err != nil {
		t.Fatal(err)
	}
	isSpanningTree(t, mt, net)
	st, err := NewSharedTree(net)
	if err != nil {
		t.Fatal(err)
	}
	// The BFS tree at the hub has degree 9; the rim cycle lets the local
	// search unload it.
	stMax := 0
	stDeg := make(map[graph.NodeID]int)
	for u := 0; u < net.Len(); u++ {
		id := graph.NodeID(u)
		if id == st.global.Root {
			continue
		}
		stDeg[st.global.Parent[u]]++
		stDeg[id]++
	}
	for _, d := range stDeg {
		if d > stMax {
			stMax = d
		}
	}
	if mt.MaxDegree() >= stMax {
		t.Errorf("min-degree tree max degree %d not below shared tree's %d", mt.MaxDegree(), stMax)
	}
	if mt.MaxDegree() > 4 {
		t.Errorf("hub-and-rim max degree %d, expected <= 4", mt.MaxDegree())
	}
}

func TestMinDegreeDeterministic(t *testing.T) {
	net := star(12)
	a, err := NewMinDegreeTree(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMinDegreeTree(net)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.global.Parent {
		if a.global.Parent[u] != b.global.Parent[u] {
			t.Fatalf("parent of %d differs across builds: %d vs %d", u, a.global.Parent[u], b.global.Parent[u])
		}
	}
	if a.MaxDegree() != b.MaxDegree() {
		t.Fatalf("max degree differs: %d vs %d", a.MaxDegree(), b.MaxDegree())
	}
}

func TestMinDegreeRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		l := topology.UniformRandom(40, topology.GDIArea(), rng.Int63())
		if _, err := l.EnsureConnected(50); err != nil {
			t.Fatal(err)
		}
		net := l.ConnectivityGraph(50)
		mt, err := NewMinDegreeTree(net)
		if err != nil {
			t.Fatal(err)
		}
		isSpanningTree(t, mt, net)
		st, err := NewSharedTree(net)
		if err != nil {
			t.Fatal(err)
		}
		stMax := 0
		cnt := make([]int, net.Len())
		for u := 0; u < net.Len(); u++ {
			id := graph.NodeID(u)
			if id == st.global.Root {
				continue
			}
			cnt[st.global.Parent[u]]++
			cnt[u]++
		}
		for _, d := range cnt {
			if d > stMax {
				stMax = d
			}
		}
		if mt.MaxDegree() > stMax {
			t.Errorf("trial %d: min-degree max %d exceeds shared tree max %d", trial, mt.MaxDegree(), stMax)
		}
		// Routing still works and stays inside the tree.
		p, err := mt.AppendPath(nil, 1, graph.NodeID(net.Len()-1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(p); i++ {
			if !net.HasEdge(p[i-1], p[i]) {
				t.Fatalf("trial %d: path hop %d—%d not an edge", trial, p[i-1], p[i])
			}
		}
	}
}

func TestMinDegreeErrors(t *testing.T) {
	if _, err := NewMinDegreeTree(graph.NewUndirected(0)); err == nil {
		t.Error("empty network accepted")
	}
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, err := NewMinDegreeTree(g); err == nil {
		t.Error("disconnected network accepted")
	}
	// Isolated slots (a removed node's empty adjacency) are tolerated.
	h := graph.NewUndirected(4)
	h.AddEdge(0, 1, 1)
	h.AddEdge(1, 2, 1)
	if _, err := NewMinDegreeTree(h); err != nil {
		t.Errorf("isolated slot rejected: %v", err)
	}
}

func TestMinDegreeTreeDegreeMatchesMax(t *testing.T) {
	net := star(9)
	mt, err := NewMinDegreeTree(net)
	if err != nil {
		t.Fatal(err)
	}
	// A node's tree degree is its children plus its parent link, counted
	// from the tree's own parent array.
	deg := make([]int, net.Len())
	for u, p := range mt.global.Parent {
		if p >= 0 && graph.NodeID(u) != mt.global.Root {
			deg[u]++
			deg[p]++
		}
	}
	if got := slices.Max(deg); got != mt.MaxDegree() {
		t.Errorf("max tree degree from Parent %d != MaxDegree %d", got, mt.MaxDegree())
	}
}

// refTree is a reference build's result: the tree as a PathTree, every
// node's depth (-1 outside the tree) and the maximum tree degree.
type refTree struct {
	global *graph.PathTree
	depth  map[graph.NodeID]int
	maxDeg int
}

// refCenter is the reference center search: a full BFS from every linked
// node, its eccentricity the largest Hops over all nodes.
func refCenter(net *graph.Undirected) graph.NodeID {
	n := net.Len()
	center := graph.NodeID(0)
	bestEcc := -1
	for u := 0; u < n; u++ {
		if net.Degree(graph.NodeID(u)) == 0 {
			continue
		}
		pt := net.BFS(graph.NodeID(u))
		ecc := 0
		for v := 0; v < n; v++ {
			if h := hopsOf(pt, graph.NodeID(v)); h > ecc {
				ecc = h
			}
		}
		if bestEcc == -1 || ecc < bestEcc {
			bestEcc, center = ecc, graph.NodeID(u)
		}
	}
	return center
}

// hopsOf is PathTree.Hops on a tree whose parent chains are known to
// reach the root.
func hopsOf(t *graph.PathTree, u graph.NodeID) int {
	h, err := t.Hops(u)
	if err != nil {
		panic(err)
	}
	return h
}

// refSharedTree is the reference SharedTree: the BFS tree at refCenter.
func refSharedTree(net *graph.Undirected) refTree {
	global := net.BFS(refCenter(net))
	depth := make(map[graph.NodeID]int, net.Len())
	for u := 0; u < net.Len(); u++ {
		depth[graph.NodeID(u)] = hopsOf(global, graph.NodeID(u))
	}
	return refTree{global: global, depth: depth}
}

// refMinDegreeTree is the reference local search NewMinDegreeTree must
// reproduce exactly: the tree as adjacency-set maps, every cycle found by
// a fresh BFS inside the tree, and a final BFS re-rooting at the center.
func refMinDegreeTree(net *graph.Undirected) refTree {
	n := net.Len()
	center := refCenter(net)

	inTree := make([]map[graph.NodeID]bool, n)
	deg := make([]int, n)
	for i := range inTree {
		inTree[i] = make(map[graph.NodeID]bool)
	}
	addT := func(a, b graph.NodeID) {
		inTree[a][b] = true
		inTree[b][a] = true
		deg[a]++
		deg[b]++
	}
	delT := func(a, b graph.NodeID) {
		delete(inTree[a], b)
		delete(inTree[b], a)
		deg[a]--
		deg[b]--
	}
	bfs := net.BFS(center)
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		if id != center && bfs.Reachable(id) {
			addT(id, bfs.Parent[u])
		}
	}

	treePath := func(a, b graph.NodeID) []graph.NodeID {
		par := make([]graph.NodeID, n)
		for i := range par {
			par[i] = -1
		}
		par[a] = a
		for q := []graph.NodeID{a}; len(q) > 0; {
			x := q[0]
			q = q[1:]
			if x == b {
				break
			}
			for y := range inTree[x] {
				if par[y] == -1 {
					par[y] = x
					q = append(q, y)
				}
			}
		}
		var rev []graph.NodeID
		for v := b; ; v = par[v] {
			rev = append(rev, v)
			if v == a {
				break
			}
		}
		slices.Reverse(rev)
		return rev
	}

	edges := net.Edges()
	for improved := true; improved; {
		improved = false
		for _, e := range edges {
			u, v := e.U, e.V
			if inTree[u][v] {
				continue
			}
			path := treePath(u, v)
			wi := -1
			for i := 1; i < len(path)-1; i++ {
				if wi == -1 || deg[path[i]] > deg[path[wi]] {
					wi = i
				}
			}
			if wi == -1 {
				continue
			}
			w := path[wi]
			if deg[w] < max(deg[u], deg[v])+2 {
				continue
			}
			delT(path[wi-1], w)
			addT(u, v)
			improved = true
		}
	}

	global := &graph.PathTree{
		Root:   center,
		Dist:   make([]float64, n),
		Parent: make([]graph.NodeID, n),
	}
	for i := range global.Parent {
		global.Parent[i] = -1
	}
	global.Parent[center] = center
	for q := []graph.NodeID{center}; len(q) > 0; {
		x := q[0]
		q = q[1:]
		for y := range inTree[x] {
			if global.Parent[y] == -1 && y != center {
				global.Parent[y] = x
				global.Dist[y] = global.Dist[x] + 1
				q = append(q, y)
			}
		}
	}
	depth := make(map[graph.NodeID]int, n)
	for u := 0; u < n; u++ {
		depth[graph.NodeID(u)] = hopsOf(global, graph.NodeID(u))
	}
	return refTree{global: global, depth: depth, maxDeg: slices.Max(deg)}
}

// diffTree reports the first difference between a built tree and its
// reference: root, parent, distance, depth, then maximum degree.
func diffTree(got *SharedTree, gotMax int, want refTree) error {
	if got.global.Root != want.global.Root {
		return fmt.Errorf("root %d, reference %d", got.global.Root, want.global.Root)
	}
	for u := range want.global.Parent {
		id := graph.NodeID(u)
		switch {
		case got.global.Parent[u] != want.global.Parent[u]:
			return fmt.Errorf("parent of %d is %d, reference %d", u, got.global.Parent[u], want.global.Parent[u])
		case got.global.Dist[u] != want.global.Dist[u]:
			return fmt.Errorf("dist of %d is %g, reference %g", u, got.global.Dist[u], want.global.Dist[u])
		case int(got.depth[u]) != want.depth[id]:
			return fmt.Errorf("depth of %d is %d, reference %d", u, got.depth[u], want.depth[id])
		}
	}
	if gotMax != want.maxDeg {
		return fmt.Errorf("max degree %d, reference %d", gotMax, want.maxDeg)
	}
	return nil
}

// diffMinDegreeOracle builds both trees for net and reports the first
// difference between NewMinDegreeTree and the reference local search.
func diffMinDegreeOracle(net *graph.Undirected) error {
	mt, err := NewMinDegreeTree(net)
	if err != nil {
		return err
	}
	return diffTree(&mt.SharedTree, mt.MaxDegree(), refMinDegreeTree(net))
}

// diffSharedTreeOracle is diffMinDegreeOracle for NewSharedTree and the
// reference center search.
func diffSharedTreeOracle(net *graph.Undirected) error {
	st, err := NewSharedTree(net)
	if err != nil {
		return err
	}
	return diffTree(st, 0, refSharedTree(net))
}

// oracleGraph draws a connected graph on 5–84 slots for the differential
// tests: a random spanning tree over the occupied slots, extra edges at a
// drawn density, and, in one graph of three, a few isolated slots (the
// shape a session leaves after condemning nodes). Graphs alternate
// between sparse, path-like trees and dense meshes.
func oracleGraph(rng *rand.Rand) *graph.Undirected {
	n := 5 + rng.Intn(80)
	g := graph.NewUndirected(n)
	occ := rng.Perm(n)
	if rng.Intn(3) == 0 {
		occ = occ[:n-1-rng.Intn(min(4, n-2))]
	}
	for i := 1; i < len(occ); i++ {
		// Attaching to a recent node makes long paths, to any node bushy trees.
		lo := 0
		if rng.Intn(2) == 0 {
			lo = max(0, i-3)
		}
		g.AddEdge(graph.NodeID(occ[i]), graph.NodeID(occ[lo+rng.Intn(i-lo)]), 1)
	}
	extra := rng.Intn(3 * len(occ))
	for k := 0; k < extra; k++ {
		a, b := occ[rng.Intn(len(occ))], occ[rng.Intn(len(occ))]
		if a != b && !g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b), 1)
		}
	}
	return g
}

// TestMinDegreeMatchesReference requires NewMinDegreeTree and
// NewSharedTree to build exactly the trees of the reference map-based
// local search and the full-BFS center search, on random connected
// graphs with and without isolated slots.
func TestMinDegreeMatchesReference(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < trials; trial++ {
		net := oracleGraph(rng)
		if err := diffMinDegreeOracle(net); err != nil {
			t.Fatalf("trial %d (%d nodes, %d links): min-degree tree: %v", trial, net.Len(), net.NumEdges(), err)
		}
		if err := diffSharedTreeOracle(net); err != nil {
			t.Fatalf("trial %d (%d nodes, %d links): shared tree: %v", trial, net.Len(), net.NumEdges(), err)
		}
	}
}

// networkCenter's pruned search returns refCenter's node on paths,
// cycles, and random sparse graphs with isolated slots and several
// components, where many candidates are skipped unwalked.
func TestNetworkCenterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		g := graph.NewUndirected(n)
		switch trial % 3 {
		case 0: // path, or a cycle when n allows
			for i := 1; i < n; i++ {
				g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1)
			}
			if n > 2 && trial%2 == 0 {
				g.AddEdge(graph.NodeID(n-1), 0, 1)
			}
		default: // random forest plus chords, some slots left isolated
			for i := 1; i < n; i++ {
				if rng.Intn(8) > 0 {
					g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), 1)
				}
			}
			for k := rng.Intn(n); k > 0; k-- {
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u != v && !g.HasEdge(u, v) {
					g.AddEdge(u, v, 1)
				}
			}
		}
		if got, want := networkCenter(g), refCenter(g); got != want {
			t.Fatalf("trial %d (n=%d): center %d, reference %d", trial, n, got, want)
		}
	}
}

package topology

import (
	"math"
	"slices"
	"testing"

	"m2m/internal/geom"
	"m2m/internal/graph"
)

// connectivityGraphNaive is the former O(n²) pairwise implementation, kept
// as the differential reference for the spatial-hash version.
func connectivityGraphNaive(l *Layout, rangeMeters float64) *graph.Undirected {
	g := graph.NewUndirected(len(l.Points))
	r2 := rangeMeters * rangeMeters
	for i := range l.Points {
		for j := i + 1; j < len(l.Points); j++ {
			if l.Points[i].Dist2(l.Points[j]) <= r2 {
				if err := g.AddEdge(graph.NodeID(i), graph.NodeID(j), l.Points[i].Dist(l.Points[j])); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// ensureConnectedNaive is the former O(n²)-per-iteration repair loop, kept
// as the differential reference for the ring-search version.
func ensureConnectedNaive(l *Layout, rangeMeters float64) {
	for iter := 0; iter < len(l.Points)+8; iter++ {
		g := connectivityGraphNaive(l, rangeMeters)
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		comp := make([]int, len(l.Points))
		for ci, c := range comps {
			for _, u := range c {
				comp[u] = ci
			}
		}
		bi, bj, best := -1, -1, math.MaxFloat64
		for i := range l.Points {
			for j := i + 1; j < len(l.Points); j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := l.Points[i].Dist(l.Points[j]); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		mid := l.Points[bi].Add(l.Points[bj]).Scale(0.5)
		target := rangeMeters * 0.45
		l.Points[bi] = pullToward(l.Points[bi], mid, target)
		l.Points[bj] = pullToward(l.Points[bj], mid, target)
	}
	if !connectivityGraphNaive(l, rangeMeters).Connected() {
		panic("ensureConnectedNaive failed to converge")
	}
}

// sameGraph fails unless got and want have the same edges and, node by
// node, the same neighbour row in the same order with bit-identical
// weights: Walk.Layer and the workload.Generate pin depend on that order.
// A walk's first layer from a node lists the node's row as stored.
func sameGraph(t *testing.T, got, want *graph.Undirected) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("node count %d != %d", got.Len(), want.Len())
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		t.Fatalf("edge count %d != %d", len(ge), len(we))
	}
	for k := range ge {
		if ge[k] != we[k] { // exact: weights must be bit-identical too
			t.Fatalf("edge %d: %+v != %+v", k, ge[k], we[k])
		}
	}
	if got.Len() == 0 {
		return
	}
	gw, ww := got.Walk(0), want.Walk(0)
	for u := graph.NodeID(0); int(u) < got.Len(); u++ {
		gw.Reset(u)
		ww.Reset(u)
		gr, wr := gw.Layer(1), ww.Layer(1)
		if !slices.Equal(gr, wr) {
			t.Fatalf("node %d: neighbour row %v != %v", u, gr, wr)
		}
		for _, v := range gr {
			gx, err1 := got.Weight(u, v)
			wx, err2 := want.Weight(u, v)
			if err1 != nil || err2 != nil || math.Float64bits(gx) != math.Float64bits(wx) {
				t.Fatalf("node %d: weight to %d is %v (%v), want %v (%v)", u, v, gx, err1, wx, err2)
			}
		}
	}
}

// TestConnectivityGraphMatchesNaive checks the spatial-hash construction
// against the pairwise reference on a spread of seeded layouts, including
// ranges much larger and much smaller than the point spacing.
func TestConnectivityGraphMatchesNaive(t *testing.T) {
	area := geom.NewRect(0, 0, 100, 100)
	gdi, _, err := GreatDuckIsland()
	if err != nil {
		t.Fatal(err)
	}
	layouts := []*Layout{
		UniformRandom(0, area, 1),
		UniformRandom(1, area, 2),
		UniformRandom(60, area, 3),
		UniformRandom(200, area, 4),
		Clustered(120, area, 5, 8, 5),
		Clustered(150, geom.NewRect(-50, -30, 400, 60), 3, 15, 6),
		Grid(12, 9, 7.5),
		gdi,
	}
	for li, l := range layouts {
		for _, r := range []float64{3, 20, 50, 500} {
			sameGraph(t, l.ConnectivityGraph(r), connectivityGraphNaive(l, r))
			_ = li
		}
	}
	// Duplicate coordinates collapse into one cell; still identical.
	dup := &Layout{Points: []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 40, Y: 40}}}
	sameGraph(t, dup.ConnectivityGraph(10), connectivityGraphNaive(dup, 10))
}

// TestScaled10kMatchesNaive checks the graphs Scaled returns at plan-10k's
// size, where the rows feed the workload and routing pins, against the
// pairwise reference on the repaired layouts.
func TestScaled10kMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("pairwise reference over 10,000 nodes")
	}
	for seed := int64(1); seed <= 3; seed++ {
		l, g, err := Scaled(10000, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, connectivityGraphNaive(l, repairRange))
	}
}

// FuzzConnectivityGraph checks the spatial-hash construction against the
// pairwise reference on small decoded layouts. data[0] picks the range,
// 0.5 to 5 m in half-metre steps, and each following byte pair places a
// point on a half-metre lattice from -4 to 11.5 m: so points often
// coincide, lie on cell borders (the cells are one range wide, from the
// smallest coordinate), and sit exactly at range of each other.
func FuzzConnectivityGraph(f *testing.F) {
	// Three stacked points and one at exactly 2 m along an axis.
	f.Add([]byte{3, 8, 8, 8, 8, 8, 8, 12, 8})
	// A 3-4-5 triangle at 5 m range: the hypotenuse is exactly at range.
	f.Add([]byte{9, 8, 8, 14, 8, 14, 16})
	// A row of points one range apart, each on a cell border.
	f.Add([]byte{1, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0})
	// A dense clump and a far point, at the smallest range.
	f.Add([]byte{0, 10, 10, 11, 10, 10, 11, 11, 11, 31, 31})
	// No points, and one point.
	f.Add([]byte{4})
	f.Add([]byte{4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		r := float64(1+data[0]%10) / 2
		l := &Layout{}
		for k := 1; k+1 < len(data) && len(l.Points) < 64; k += 2 {
			l.Points = append(l.Points, geom.Point{
				X: float64(int(data[k]%32)-8) / 2,
				Y: float64(int(data[k+1]%32)-8) / 2,
			})
		}
		sameGraph(t, l.ConnectivityGraph(r), connectivityGraphNaive(l, r))
	})
}

// TestEnsureConnectedMatchesNaive checks that the grid ring search moves
// exactly the same points to exactly the same coordinates as the pairwise
// reference, on layouts that need several repair iterations.
func TestEnsureConnectedMatchesNaive(t *testing.T) {
	// Only layouts the repair loop converges on are usable here (very
	// sparse layouts exceed the iteration bound under either
	// implementation — a pre-existing property of the algorithm).
	mk := func() []*Layout {
		return []*Layout{
			UniformRandom(100, geom.NewRect(0, 0, 150, 290), 7),
			Clustered(80, geom.NewRect(0, 0, 1500, 400), 6, 10, 8),
			Clustered(68, geom.NewRect(0, 0, GDIWidth, GDIHeight), 9, 22, 2007),
			{Points: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 200, Y: 0}, {X: 210, Y: 0}}},
		}
	}
	a, b := mk(), mk()
	for k := range a {
		a[k].EnsureConnected(50)
		ensureConnectedNaive(b[k], 50)
		if len(a[k].Points) != len(b[k].Points) {
			t.Fatalf("layout %d: point count diverged", k)
		}
		for i := range a[k].Points {
			if a[k].Points[i] != b[k].Points[i] {
				t.Fatalf("layout %d point %d: grid %v != naive %v", k, i, a[k].Points[i], b[k].Points[i])
			}
		}
	}
}

// TestScaledClusteredLargeLayouts exercises the 10k-node clustered
// generator end-to-end: connectivity is guaranteed after repair, density
// stays near the Great Duck Island reference, and generation is
// deterministic per seed.
func TestScaledClusteredLargeLayouts(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	l, g, err := ScaledClustered(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	if !g.Connected() {
		t.Fatal("ScaledClustered layout not connected at 50 m")
	}
	refDensity := float64(GDINodes) / (GDIWidth * GDIHeight)
	if d := density(l); d < refDensity*0.9 || d > refDensity*1.1 {
		t.Errorf("density %v strays from reference %v", d, refDensity)
	}
	l2, _, err := ScaledClustered(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.Points {
		if l.Points[i] != l2.Points[i] {
			t.Fatalf("point %d not deterministic", i)
		}
	}
	l3, _, err := ScaledClustered(n, 43)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Points[0] == l.Points[0] && l3.Points[1] == l.Points[1] {
		t.Error("different seeds produced identical layouts")
	}
}

// TestScaledLargeUniform covers the uniform generator at 10k: Scaled must
// stay connected and keep reference density at sizes where the former
// O(n²) construction was the planner's bottleneck.
func TestScaledLargeUniform(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	l, g, err := Scaled(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	if !g.Connected() {
		t.Fatal("Scaled layout not connected at 50 m")
	}
}

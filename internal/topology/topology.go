// Package topology generates sensor-node placements and derives radio
// connectivity graphs from them.
//
// The paper evaluates on the coordinates of the 2003 Great Duck Island
// deployment, filtered to 68 nodes in a 106 × 203 m² area with 50 m radio
// range. The real coordinate file is not available, so GreatDuckIsland
// synthesizes a deterministic clustered layout with the same node count,
// area, and range; what the experiments actually exercise is the multi-hop
// structure (network diameter of several hops), which the synthetic layout
// reproduces. This substitution is recorded in DESIGN.md §4.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"m2m/internal/geom"
	"m2m/internal/graph"
	"m2m/internal/radio"
)

// Layout is a set of node positions inside an area.
type Layout struct {
	Area   geom.Rect
	Points []geom.Point
}

// Len returns the number of nodes.
func (l *Layout) Len() int { return len(l.Points) }

// Great Duck Island reference figures (paper, Section 4).
const (
	GDINodes  = 68
	GDIWidth  = 106.0
	GDIHeight = 203.0
)

// GDIArea is the Great Duck Island reference rectangle, 106 × 203 m².
func GDIArea() geom.Rect { return geom.NewRect(0, 0, GDIWidth, GDIHeight) }

// GreatDuckIsland returns the deterministic synthetic stand-in for the
// paper's 68-node deployment: clustered placement (the real deployment
// grouped motes around petrel burrows) inside 106 × 203 m², repaired to be
// connected at 50 m range, with the connectivity graph at that range.
//
// Clustered clamps Gaussian draws to the rectangle, so some nodes share a
// position: 17, 44, 52 and 53 sit at (106, 0), and 28 and 37 at (0, 0).
// Their links have zero weight (DESIGN.md §4). The error is
// EnsureConnected's; the fixed layout repairs without one.
func GreatDuckIsland() (*Layout, *graph.Undirected, error) {
	return repaired(Clustered(GDINodes, GDIArea(), 9, 22, 2007))
}

// repaired returns l with the connectivity graph EnsureConnected repairs
// it to at repairRange, or EnsureConnected's error.
func repaired(l *Layout) (*Layout, *graph.Undirected, error) {
	g, err := l.EnsureConnected(repairRange)
	if err != nil {
		return nil, nil, err
	}
	return l, g, nil
}

// repairRange is the radio range GreatDuckIsland, Scaled and
// ScaledClustered repair their layouts to be connected at, and the range
// of the graphs they return: the paper's 50 m, the default radio's.
const repairRange = radio.DefaultRangeMeters

// UniformRandom places n nodes uniformly at random in area, deterministically
// for a given seed.
func UniformRandom(n int, area geom.Rect, seed int64) *Layout {
	if n < 0 {
		panic("topology: negative node count")
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: area.MinX + rng.Float64()*area.Width(),
			Y: area.MinY + rng.Float64()*area.Height(),
		}
	}
	return &Layout{Area: area, Points: pts}
}

// Grid places nodes on an nx × ny lattice with the given spacing, origin at
// (0, 0).
func Grid(nx, ny int, spacing float64) *Layout {
	if nx <= 0 || ny <= 0 {
		panic("topology: non-positive grid dimensions")
	}
	pts := make([]geom.Point, 0, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			pts = append(pts, geom.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	area := geom.NewRect(0, 0, float64(nx-1)*spacing, float64(ny-1)*spacing)
	return &Layout{Area: area, Points: pts}
}

// Clustered places n nodes around k cluster centers drawn uniformly in
// area; each node is offset from its (round-robin assigned) center by a
// Gaussian with the given spread, clamped to the area.
func Clustered(n int, area geom.Rect, k int, spread float64, seed int64) *Layout {
	if n < 0 || k <= 0 {
		panic("topology: invalid cluster parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{
			X: area.MinX + rng.Float64()*area.Width(),
			Y: area.MinY + rng.Float64()*area.Height(),
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[i%k]
		p := geom.Point{
			X: c.X + rng.NormFloat64()*spread,
			Y: c.Y + rng.NormFloat64()*spread,
		}
		pts[i] = area.Clamp(p)
	}
	return &Layout{Area: area, Points: pts}
}

// Scaled returns a layout with n uniformly placed nodes whose area grows
// with n so that density matches the Great Duck Island reference
// (68 nodes / (106×203) m²), as in the paper's network-size experiment
// (Figure 6). The aspect ratio of the reference area is preserved and the
// layout is repaired to be connected at 50 m range; the connectivity
// graph at that range is returned with it, or EnsureConnected's error.
func Scaled(n int, seed int64) (*Layout, *graph.Undirected, error) {
	refDensity := float64(GDINodes) / (GDIWidth * GDIHeight)
	area := float64(n) / refDensity
	// width/height = GDIWidth/GDIHeight, width*height = area.
	ratio := GDIWidth / GDIHeight
	h := math.Sqrt(area / ratio)
	w := area / h
	return repaired(UniformRandom(n, geom.NewRect(0, 0, w, h), seed))
}

// ScaledClustered is the clustered counterpart of Scaled: n nodes at the
// Great Duck Island reference density in a proportionally grown area, but
// grouped around cluster centers like the real deployment (9 clusters per
// 68 nodes, 22 m spread), repaired to be connected at 50 m range. It is the
// adversarial generator for the plan-scale benchmarks — clusters make dense
// per-edge problems. Like Scaled, it returns the connectivity graph at
// 50 m with the layout, or EnsureConnected's error.
func ScaledClustered(n int, seed int64) (*Layout, *graph.Undirected, error) {
	refDensity := float64(GDINodes) / (GDIWidth * GDIHeight)
	area := float64(n) / refDensity
	ratio := GDIWidth / GDIHeight
	h := math.Sqrt(area / ratio)
	w := area / h
	k := (n*9 + GDINodes - 1) / GDINodes // ~9 clusters per 68 nodes, ≥1
	if k < 1 {
		k = 1
	}
	return repaired(Clustered(n, geom.NewRect(0, 0, w, h), k, 22, seed))
}

// ConnectivityGraph returns the undirected graph connecting every pair of
// nodes within radio range, with edge weights equal to Euclidean distance.
// A spatial hash restricts the candidate pairs to adjacent cells, so the
// cost is near-linear in n instead of O(n²); edges are inserted in the same
// (i ascending, j ascending) order as a pairwise scan, so the resulting
// adjacency lists are identical.
func (l *Layout) ConnectivityGraph(rangeMeters float64) *graph.Undirected {
	if rangeMeters <= 0 {
		panic("topology: non-positive radio range")
	}
	if len(l.Points) < 2 {
		return graph.NewUndirected(len(l.Points))
	}
	cg := buildCellGrid(l.Points, rangeMeters)
	r2 := rangeMeters * rangeMeters
	cand := make([]int32, 0, 64)
	var edges []graph.Edge
	for i := range l.Points {
		cand = cg.neighborsAbove(int32(i), cand[:0])
		slices.Sort(cand)
		pi := l.Points[i]
		for _, j := range cand {
			if pi.Dist2(l.Points[j]) <= r2 {
				// No self-loops or duplicates: j > i, one cell per point.
				edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(j), W: pi.Dist(l.Points[j])})
			}
		}
	}
	return graph.NewUndirectedFromEdges(len(l.Points), edges)
}

// EnsureConnected deterministically repairs l so that its connectivity
// graph at the given range is connected: while more than one component
// remains, the closest pair of nodes in different components is pulled
// toward their midpoint until within 90% of range. It returns the
// connectivity graph of the repaired layout, the one that proved it
// connected, so callers need not build it again. It returns an error if
// the layout is still disconnected after n+8 pulls: far-apart clusters
// can defeat the repair, since each pull moves only the closest
// cross-component pair and may leave the rest of its cluster behind.
//
// The closest pair comes from a per-node ring search over the spatial hash
// rather than a pairwise scan. The selection is identical to the former
// O(n²) loop: node i's nearest other-component neighbor (smallest ID on
// exact distance ties) strictly improving the global best reproduces the
// ascending (i, j) scan's winner pair.
func (l *Layout) EnsureConnected(rangeMeters float64) (*graph.Undirected, error) {
	comp := make([]int, len(l.Points))
	for iter := 0; iter < len(l.Points)+8; iter++ {
		g := l.ConnectivityGraph(rangeMeters)
		comps := g.Components()
		if len(comps) <= 1 {
			return g, nil
		}
		for ci, c := range comps {
			for _, u := range c {
				comp[u] = ci
			}
		}
		cg := buildCellGrid(l.Points, rangeMeters)
		bi, bj, best := -1, -1, math.MaxFloat64
		for i := range l.Points {
			if j, d := cg.nearestOtherComponent(i, comp, best); j >= 0 && d < best {
				best, bi, bj = d, i, j
			}
		}
		mid := l.Points[bi].Add(l.Points[bj]).Scale(0.5)
		target := rangeMeters * 0.45 // each endpoint ends up 0.45r from mid
		l.Points[bi] = pullToward(l.Points[bi], mid, target)
		l.Points[bj] = pullToward(l.Points[bj], mid, target)
	}
	g := l.ConnectivityGraph(rangeMeters)
	if comps := g.Components(); len(comps) > 1 {
		return nil, fmt.Errorf("topology: %d-node layout still has %d components at %g m after %d repair pulls",
			len(l.Points), len(comps), rangeMeters, len(l.Points)+8)
	}
	return g, nil
}

// pullToward moves p to be exactly dist from anchor along the p—anchor
// line (or onto the anchor if already closer).
func pullToward(p, anchor geom.Point, dist float64) geom.Point {
	d := p.Dist(anchor)
	if d <= dist {
		return p
	}
	dir := p.Sub(anchor).Scale(1 / d)
	return anchor.Add(dir.Scale(dist))
}

package topology

import (
	"math"

	"m2m/internal/geom"
)

// cellGrid is a spatial hash over a layout's points: square cells whose side
// equals the radio range, so every pair within range lies in adjacent cells
// (Chebyshev distance ≤ 1). Points are bucketed into a counting-sorted CSR,
// ascending by ID within each cell. It turns the O(n²) pairwise scans of
// ConnectivityGraph and EnsureConnected into near-linear neighborhood
// queries at 10k–100k nodes.
type cellGrid struct {
	pts        []geom.Point
	cell       float64
	minX, minY float64
	nx, ny     int
	start      []int32 // CSR offsets per cell, len nx*ny+1
	ids        []int32 // point IDs bucketed by cell
}

func buildCellGrid(pts []geom.Point, cell float64) *cellGrid {
	g := &cellGrid{pts: pts, cell: cell, minX: math.Inf(1), minY: math.Inf(1)}
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		g.minX = math.Min(g.minX, p.X)
		g.minY = math.Min(g.minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.nx = int((maxX-g.minX)/cell) + 1
	g.ny = int((maxY-g.minY)/cell) + 1
	g.start = make([]int32, g.nx*g.ny+1)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		cx, cy := g.cellXY(p)
		c := int32(cy*g.nx + cx)
		cellOf[i] = c
		g.start[c+1]++
	}
	for c := 0; c < g.nx*g.ny; c++ {
		g.start[c+1] += g.start[c]
	}
	fill := append([]int32(nil), g.start[:g.nx*g.ny]...)
	g.ids = make([]int32, len(pts))
	for i := range pts { // ascending i keeps each bucket sorted by ID
		c := cellOf[i]
		g.ids[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

func (g *cellGrid) cellXY(p geom.Point) (int, int) {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	// Clamp against float rounding at the maximum coordinate.
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// block returns the runs of ids holding the 3×3 cell block around point
// i, one per cell row in the grid (empty past its edges): the cells of a
// block row are adjacent in the CSR. Every point within range of i lies
// in them.
func (g *cellGrid) block(i int32) (runs [3][]int32) {
	cx, cy := g.cellXY(g.pts[i])
	x0, x1 := max(cx-1, 0), min(cx+1, g.nx-1)
	for k, y := 0, max(cy-1, 0); y <= min(cy+1, g.ny-1); k, y = k+1, y+1 {
		runs[k] = g.ids[g.start[y*g.nx+x0]:g.start[y*g.nx+x1+1]]
	}
	return runs
}

// nearestOtherComponent finds the point nearest to i that lies in a
// different component (per comp), searching cells in expanding square rings
// around i. Among equal distances the smallest ID wins — the same tiebreak
// as an ascending pairwise scan. bound prunes the search: candidates at
// distance ≥ bound cannot matter to the caller, so (-1, +Inf) may be
// returned as soon as every unsearched ring is provably at least bound
// away. Distances are geom.Point.Dist values, bit-identical to the former
// O(n²) scan.
func (g *cellGrid) nearestOtherComponent(i int, comp []int32, bound float64) (int, float64) {
	p := g.pts[i]
	cx, cy := g.cellXY(p)
	bestJ, bestD := -1, math.Inf(1)
	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	for k := 0; k <= maxRing; k++ {
		if k >= 2 {
			// Every point in ring k is at least (k-1)·cell away.
			stop := bestD
			if bound < stop {
				stop = bound
			}
			if float64(k-1)*g.cell > stop {
				break
			}
		}
		g.forEachRingCell(cx, cy, k, func(c int) {
			for _, j := range g.ids[g.start[c]:g.start[c+1]] {
				if int(j) == i || comp[j] == comp[i] {
					continue
				}
				d := p.Dist(g.pts[j])
				if d < bestD || (d == bestD && int(j) < bestJ) {
					bestD, bestJ = d, int(j)
				}
			}
		})
	}
	return bestJ, bestD
}

// forEachRingCell visits every in-bounds cell at Chebyshev distance k from
// (cx, cy).
func (g *cellGrid) forEachRingCell(cx, cy, k int, visit func(c int)) {
	if k == 0 {
		visit(cy*g.nx + cx)
		return
	}
	for y := cy - k; y <= cy+k; y++ {
		if y < 0 || y >= g.ny {
			continue
		}
		if y == cy-k || y == cy+k { // top and bottom rows: full span
			for x := cx - k; x <= cx+k; x++ {
				if x >= 0 && x < g.nx {
					visit(y*g.nx + x)
				}
			}
			continue
		}
		if x := cx - k; x >= 0 && x < g.nx {
			visit(y*g.nx + x)
		}
		if x := cx + k; x >= 0 && x < g.nx {
			visit(y*g.nx + x)
		}
	}
}

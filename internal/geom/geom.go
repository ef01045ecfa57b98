// Package geom provides the small amount of 2-D geometry used to place
// sensor nodes and derive radio connectivity.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root when only comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [MinX,MaxX] × [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle with the given origin and dimensions.
func NewRect(x, y, w, h float64) Rect {
	return Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

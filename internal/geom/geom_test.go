package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{0, 7}, 7},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		return almostEq(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Restrict to a sane range to avoid overflow to +Inf.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p := Point{clamp(ax), clamp(ay)}
		q := Point{clamp(bx), clamp(by)}
		d := p.Dist(q)
		return almostEq(d*d, p.Dist2(q)) || math.Abs(d*d-p.Dist2(q)) < 1e-6*d*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(1, 2, 10, 20)
	if r.Width() != 10 || r.Height() != 20 {
		t.Fatalf("dims = %v × %v", r.Width(), r.Height())
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	tests := []struct{ in, want Point }{
		{Point{-5, 5}, Point{0, 5}},
		{Point{5, 15}, Point{5, 10}},
		{Point{12, -3}, Point{10, 0}},
		{Point{3, 4}, Point{3, 4}},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestClampInsideProperty(t *testing.T) {
	r := NewRect(0, 0, 106, 203)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := r.Clamp(Point{x, y})
		return c.X >= r.MinX && c.X <= r.MaxX && c.Y >= r.MinY && c.Y <= r.MaxY
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

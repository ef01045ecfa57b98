package vcover

import (
	"math/rand"
	"testing"
)

// vtx builds a vertex with key == id for brevity.
func vtx(key int, w int64) Vertex { return Vertex{Key: key, Weight: w} }

func TestValidate(t *testing.T) {
	bad := []*Problem{
		{U: []Vertex{vtx(0, -1)}},
		{U: []Vertex{vtx(-1, 1)}},
		{U: []Vertex{vtx(0, 1)}, V: []Vertex{vtx(0, 1)}}, // duplicate key
		{U: []Vertex{vtx(0, 1)}, V: []Vertex{vtx(1, 1)}, Edges: [][2]int{{1, 0}}},
		{U: []Vertex{vtx(0, 1)}, V: []Vertex{vtx(1, 1)}, Edges: [][2]int{{0, 1}}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("problem %d accepted", i)
		}
	}
	good := &Problem{U: []Vertex{vtx(0, 1)}, V: []Vertex{vtx(1, 2)}, Edges: [][2]int{{0, 0}}}
	if _, err := Solve(good); err != nil {
		t.Errorf("good problem rejected: %v", err)
	}
}

func TestSolveSingleEdge(t *testing.T) {
	// One edge, cheap source: source must be chosen.
	p := &Problem{
		U:     []Vertex{vtx(0, 1)},
		V:     []Vertex{vtx(1, 5)},
		Edges: [][2]int{{0, 0}},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InU[0] || s.InV[0] || s.Weight != 1 {
		t.Errorf("solution = %+v", s)
	}
}

func TestSolveStarFavorsHub(t *testing.T) {
	// One destination aggregating 5 sources (Figure 1(B)): choosing the
	// destination (weight 3) beats five raw values (weight 5).
	p := &Problem{V: []Vertex{vtx(100, 3)}}
	for i := 0; i < 5; i++ {
		p.U = append(p.U, vtx(i, 1))
		p.Edges = append(p.Edges, [2]int{i, 0})
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InV[0] || s.Weight != 3 {
		t.Errorf("solution = %+v", s)
	}
	for i := range p.U {
		if s.InU[i] {
			t.Errorf("source %d unnecessarily chosen", i)
		}
	}
}

func TestSolveMulticastSide(t *testing.T) {
	// One source feeding 5 destinations (Figure 1(A)): raw wins.
	p := &Problem{U: []Vertex{vtx(100, 2)}}
	for j := 0; j < 5; j++ {
		p.V = append(p.V, vtx(j, 2))
		p.Edges = append(p.Edges, [2]int{0, j})
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InU[0] || s.Weight != 2 {
		t.Errorf("solution = %+v", s)
	}
}

func TestSolvePaperFigure2(t *testing.T) {
	// Figure 1(C)/Figure 2: sources a,b,c,d; destinations k,l,m.
	//   k ~ a,b,c,d ; l ~ a,b,c ; m ~ a. Unit weights.
	// The paper's optimal plan transmits raw a plus records for k and l
	// (weight 3).
	idx := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3, "k": 0, "l": 1, "m": 2}
	p := &Problem{
		U: []Vertex{vtx(0, 1), vtx(1, 1), vtx(2, 1), vtx(3, 1)},
		V: []Vertex{vtx(10, 1), vtx(11, 1), vtx(12, 1)},
	}
	add := func(s, d string) { p.Edges = append(p.Edges, [2]int{idx[s], idx[d]}) }
	for _, s := range []string{"a", "b", "c", "d"} {
		add(s, "k")
	}
	for _, s := range []string{"a", "b", "c"} {
		add(s, "l")
	}
	add("a", "m")

	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Weight != 3 {
		t.Fatalf("weight = %d, want 3 (solution %v / %v)", s.Weight, s.ChosenU(), s.ChosenV())
	}
	if !s.InU[idx["a"]] || !s.InV[idx["k"]] || !s.InV[idx["l"]] {
		t.Errorf("expected {a, k, l}; got U=%v V=%v", s.ChosenU(), s.ChosenV())
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	s, err := Solve(&Problem{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Weight != 0 {
		t.Errorf("weight = %d", s.Weight)
	}
}

func TestIsolatedVerticesNeverChosen(t *testing.T) {
	p := &Problem{
		U:     []Vertex{vtx(0, 1), vtx(1, 1)}, // U[1] isolated
		V:     []Vertex{vtx(2, 5), vtx(3, 1)}, // V[1] isolated
		Edges: [][2]int{{0, 0}},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.InU[1] || s.InV[1] {
		t.Errorf("isolated vertex chosen: %+v", s)
	}
	if !s.InU[0] || s.Weight != 1 {
		t.Errorf("solution = %+v", s)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	for trial := 0; trial < 300; trial++ {
		nU, nV := 1+rng.Intn(6), 1+rng.Intn(6)
		p := &Problem{}
		for i := 0; i < nU; i++ {
			p.U = append(p.U, Vertex{Key: i, Weight: int64(1 + rng.Intn(8))})
		}
		for j := 0; j < nV; j++ {
			p.V = append(p.V, Vertex{Key: nU + j, Weight: int64(1 + rng.Intn(8))})
		}
		for i := 0; i < nU; i++ {
			for j := 0; j < nV; j++ {
				if rng.Float64() < 0.4 {
					p.Edges = append(p.Edges, [2]int{i, j})
				}
			}
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(p)
		if got.Weight != want.Weight {
			t.Fatalf("trial %d: weight %d, brute force %d", trial, got.Weight, want.Weight)
		}
		// Uniqueness under perturbation means exact membership must match.
		for i := range p.U {
			if got.InU[i] != want.InU[i] {
				t.Fatalf("trial %d: U[%d] membership differs", trial, i)
			}
		}
		for j := range p.V {
			if got.InV[j] != want.InV[j] {
				t.Fatalf("trial %d: V[%d] membership differs", trial, j)
			}
		}
		if !got.Covers(p) {
			t.Fatalf("trial %d: non-cover returned", trial)
		}
	}
}

func TestSolveDeterministicAcrossRuns(t *testing.T) {
	p := &Problem{
		U:     []Vertex{vtx(0, 2), vtx(1, 2)},
		V:     []Vertex{vtx(2, 2), vtx(3, 2)},
		Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
	}
	first, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		again, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.InU {
			if first.InU[i] != again.InU[i] {
				t.Fatal("nondeterministic U membership")
			}
		}
		for j := range first.InV {
			if first.InV[j] != again.InV[j] {
				t.Fatal("nondeterministic V membership")
			}
		}
	}
}

func TestTiebreakPrefersLowerKeys(t *testing.T) {
	// Symmetric 1x1 problem with equal weights: the perturbation must pick
	// the vertex with the smaller key (smaller 2^Key addend).
	p := &Problem{
		U:     []Vertex{vtx(3, 5)},
		V:     []Vertex{vtx(7, 5)},
		Edges: [][2]int{{0, 0}},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InU[0] || s.InV[0] {
		t.Errorf("expected U (key 3) over V (key 7): %+v", s)
	}
	// Swap keys: now V must win.
	p.U[0].Key, p.V[0].Key = 7, 3
	s, err = Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.InU[0] || !s.InV[0] {
		t.Errorf("expected V (key 3) over U (key 7): %+v", s)
	}
}

func TestAllUAllV(t *testing.T) {
	p := &Problem{
		U:     []Vertex{vtx(0, 2), vtx(1, 3), vtx(2, 4)}, // U[2] isolated
		V:     []Vertex{vtx(3, 5), vtx(4, 7)},
		Edges: [][2]int{{0, 0}, {1, 0}, {1, 1}},
	}
	u := AllU(p)
	if !u.Covers(p) || u.Weight != 5 || u.InU[2] {
		t.Errorf("AllU = %+v", u)
	}
	v := AllV(p)
	if !v.Covers(p) || v.Weight != 12 {
		t.Errorf("AllV = %+v", v)
	}
}

func TestOptimalNeverWorseThanTrivialCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		nU, nV := 1+rng.Intn(10), 1+rng.Intn(10)
		p := &Problem{}
		for i := 0; i < nU; i++ {
			p.U = append(p.U, Vertex{Key: i, Weight: int64(1 + rng.Intn(12))})
		}
		for j := 0; j < nV; j++ {
			p.V = append(p.V, Vertex{Key: nU + j, Weight: int64(1 + rng.Intn(12))})
		}
		for i := 0; i < nU; i++ {
			for j := 0; j < nV; j++ {
				if rng.Float64() < 0.3 {
					p.Edges = append(p.Edges, [2]int{i, j})
				}
			}
		}
		opt, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Weight > AllU(p).Weight || opt.Weight > AllV(p).Weight {
			t.Fatalf("trial %d: optimal %d worse than trivial (%d, %d)",
				trial, opt.Weight, AllU(p).Weight, AllV(p).Weight)
		}
	}
}

// ChosenU returns the indices of chosen U-vertices in ascending order.
func (s *Solution) ChosenU() []int { return chosen(s.InU) }

// ChosenV returns the indices of chosen V-vertices in ascending order.
func (s *Solution) ChosenV() []int { return chosen(s.InV) }

func chosen(in []bool) []int {
	var out []int
	for i, b := range in {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// AllU returns the trivial cover choosing every U-vertex incident to at
// least one edge (the pure-multicast plan at a single edge).
func AllU(p *Problem) *Solution {
	s := &Solution{InU: make([]bool, len(p.U)), InV: make([]bool, len(p.V))}
	for _, e := range p.Edges {
		if !s.InU[e[0]] {
			s.InU[e[0]] = true
			s.Weight += p.U[e[0]].Weight
		}
	}
	return s
}

// AllV returns the trivial cover choosing every V-vertex incident to at
// least one edge (the pure aggregate-as-early-as-possible plan).
func AllV(p *Problem) *Solution {
	s := &Solution{InU: make([]bool, len(p.U)), InV: make([]bool, len(p.V))}
	for _, e := range p.Edges {
		if !s.InV[e[1]] {
			s.InV[e[1]] = true
			s.Weight += p.V[e[1]].Weight
		}
	}
	return s
}

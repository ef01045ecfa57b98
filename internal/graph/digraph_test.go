package graph

import (
	"math/rand"
	"testing"
)

// arcs lists u0->v0, u1->v1, ... as Arcs.
func arcs(uv ...int32) []Arc {
	out := make([]Arc, 0, len(uv)/2)
	for i := 0; i+1 < len(uv); i += 2 {
		out = append(out, Arc{From: uv[i], To: uv[i+1]})
	}
	return out
}

func TestTopoSortLinear(t *testing.T) {
	d := NewDigraph(4, arcs(3, 2, 2, 1, 1, 0))
	order, ok := d.TopoSort()
	if !ok {
		t.Fatal("acyclic graph reported cyclic")
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministicTiebreak(t *testing.T) {
	// Vertices 0,1,2 all independent; smallest first.
	d := NewDigraph(3, nil)
	order, ok := d.TopoSort()
	if !ok || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, ok = %v", order, ok)
	}
}

func TestCycleDetection(t *testing.T) {
	if NewDigraph(3, arcs(0, 1, 1, 2)).HasCycle() {
		t.Error("path reported cyclic")
	}
	if !NewDigraph(3, arcs(0, 1, 1, 2, 2, 0)).HasCycle() {
		t.Error("cycle not detected")
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	if !NewDigraph(2, arcs(1, 1)).HasCycle() {
		t.Error("self-loop not detected as cycle")
	}
}

// TestDuplicateArcIgnored pins that a repeated arc changes no query: the
// order, the cyclic core and reachability depend on the set of arcs.
func TestDuplicateArcIgnored(t *testing.T) {
	once := NewDigraph(4, arcs(2, 0, 0, 1, 3, 3))
	twice := NewDigraph(4, arcs(2, 0, 0, 1, 2, 0, 3, 3, 0, 1, 2, 0))
	a, b := once.kahn(), twice.kahn()
	if len(a) != len(b) {
		t.Fatalf("emitted %v once, %v with duplicates", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emitted %v once, %v with duplicates", a, b)
		}
	}
	if core := twice.CyclicCore(); len(core) != 1 || core[0] != 3 {
		t.Errorf("cyclic core with duplicates = %v, want [3]", core)
	}
	if !twice.Reaches(2, 1) || twice.Reaches(1, 2) {
		t.Error("duplicates changed reachability")
	}
}

func TestReaches(t *testing.T) {
	d := NewDigraph(5, arcs(0, 1, 1, 2, 3, 4))
	if !d.Reaches(0, 2) {
		t.Error("0 should reach 2")
	}
	if d.Reaches(2, 0) {
		t.Error("2 should not reach 0")
	}
	if d.Reaches(0, 4) {
		t.Error("0 should not reach 4")
	}
	if !d.Reaches(3, 3) {
		t.Error("node should reach itself")
	}
}

func TestTopoOrderRespectsArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		var as []Arc
		// Random DAG: arcs only from lower rank to higher rank in a random
		// permutation, guaranteeing acyclicity.
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					as = append(as, Arc{From: int32(perm[i]), To: int32(perm[j])})
				}
			}
		}
		d := NewDigraph(n, as)
		order, ok := d.TopoSort()
		if !ok {
			t.Fatal("random DAG reported cyclic")
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, a := range as {
			if pos[a.From] >= pos[a.To] {
				t.Fatalf("arc %d->%d violates topo order", a.From, a.To)
			}
		}
	}
}

func TestReachesMatchesTransitiveClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		var as []Arc
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					as = append(as, Arc{From: int32(u), To: int32(v)})
					reach[u][v] = true
				}
			}
		}
		d := NewDigraph(n, as)
		// Floyd–Warshall closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if d.Reaches(u, v) != reach[u][v] {
					t.Fatalf("Reaches(%d,%d) = %v, closure says %v", u, v, d.Reaches(u, v), reach[u][v])
				}
			}
		}
	}
}

// TestTopoSortSmallestReadyFirst checks the ready-set Kahn against a
// quadratic reference that rescans for the smallest ready vertex, on
// random graphs wide enough that the ready set spans several summary
// words, with and without cycles.
func TestTopoSortSmallestReadyFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(9000)
		var as []Arc
		for i := 0; i < 2*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u > v && trial%3 != 0 { // every third graph may be cyclic
				u, v = v, u
			}
			if u != v {
				as = append(as, Arc{From: u, To: v})
			}
		}
		indeg := make([]int, n)
		succ := make([][]int32, n)
		for _, a := range as {
			indeg[a.To]++
			succ[a.From] = append(succ[a.From], a.To)
		}
		done := make([]bool, n)
		var want []int
		for {
			u := -1
			for v := 0; v < n; v++ {
				if !done[v] && indeg[v] == 0 {
					u = v
					break
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			want = append(want, u)
			for _, v := range succ[u] {
				indeg[v]--
			}
		}
		got := NewDigraph(n, as).kahn()
		if len(got) != len(want) {
			t.Fatalf("n=%d: emitted %d vertices, reference %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d is %d, reference %d", n, i, got[i], want[i])
			}
		}
	}
}

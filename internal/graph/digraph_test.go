package graph

import (
	"math/rand"
	"testing"
)

func TestTopoSortLinear(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(3, 2)
	d.AddArc(2, 1)
	d.AddArc(1, 0)
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
	d := NewDigraph(3)
	order, ok := d.TopoSort()
	if !ok || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, ok = %v", order, ok)
	}
}

func TestCycleDetection(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	if d.HasCycle() {
		t.Error("path reported cyclic")
	}
	d.AddArc(2, 0)
	if !d.HasCycle() {
		t.Error("cycle not detected")
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	d := NewDigraph(2)
	d.AddArc(1, 1)
	if !d.HasCycle() {
		t.Error("self-loop not detected as cycle")
	}
}

func TestDuplicateArcIgnored(t *testing.T) {
	d := NewDigraph(2)
	d.AddArc(0, 1)
	d.AddArc(0, 1)
	if got := d.out[0]; len(got) != 1 {
		t.Errorf("successors of 0 = %v", got)
	}
}

func TestReaches(t *testing.T) {
	d := NewDigraph(5)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(3, 4)
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
		d := NewDigraph(n)
		// Random DAG: arcs only from lower rank to higher rank in a random
		// permutation, guaranteeing acyclicity.
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					d.AddArc(perm[i], perm[j])
				}
			}
		}
		order, ok := d.TopoSort()
		if !ok {
			t.Fatal("random DAG reported cyclic")
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range d.out[u] {
				if pos[u] >= pos[v] {
					t.Fatalf("arc %d->%d violates topo order", u, v)
				}
			}
		}
	}
}

func TestReachesMatchesTransitiveClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		d := NewDigraph(n)
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					d.AddArc(u, v)
					reach[u][v] = true
				}
			}
		}
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

package vcover

// Computational verification of Lemma 1 from the paper's Appendix A — the
// engine behind Theorem 1. With unique minimum covers:
//
//	(A) adding destination vertices (and edges incident to them) never
//	    evicts a chosen source vertex from the minimum cover;
//	(B) adding source vertices (and edges incident to them) never
//	    promotes a previously unchosen source vertex ... equivalently,
//	    removing added source vertices preserves chosen source vertices.
//
// These monotonicity properties are exactly why an upstream edge's
// decision to transmit raw can never conflict with a downstream edge's
// optimum. The tests check both directions on thousands of random
// instances against the exact solver.

import (
	"math/rand"
	"testing"
)

// randProblem builds a random bipartite problem with globally unique keys
// starting at keyBase.
func randProblem(rng *rand.Rand, nU, nV, keyBase int) *Problem {
	p := &Problem{}
	for i := 0; i < nU; i++ {
		p.U = append(p.U, Vertex{Key: keyBase + i, Weight: int64(1 + rng.Intn(6))})
	}
	for j := 0; j < nV; j++ {
		p.V = append(p.V, Vertex{Key: keyBase + nU + j, Weight: int64(1 + rng.Intn(6))})
	}
	for i := 0; i < nU; i++ {
		for j := 0; j < nV; j++ {
			if rng.Float64() < 0.35 {
				p.Edges = append(p.Edges, [2]int{i, j})
			}
		}
	}
	return p
}

func TestLemma1AddingDestinationsKeepsChosenSources(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for trial := 0; trial < 400; trial++ {
		nU, nV := 1+rng.Intn(5), 1+rng.Intn(5)
		base := randProblem(rng, nU, nV, 0)
		before, err := solveNew(base)
		if err != nil {
			t.Fatal(err)
		}

		// Extend with new destination vertices Y and random edges U×Y.
		ext := &Problem{
			U:     append([]Vertex(nil), base.U...),
			V:     append([]Vertex(nil), base.V...),
			Edges: append([][2]int(nil), base.Edges...),
		}
		nY := 1 + rng.Intn(3)
		for k := 0; k < nY; k++ {
			ext.V = append(ext.V, Vertex{Key: 100 + k, Weight: int64(1 + rng.Intn(6))})
			for i := 0; i < nU; i++ {
				if rng.Float64() < 0.4 {
					ext.Edges = append(ext.Edges, [2]int{i, nV + k})
				}
			}
		}
		after, err := solveNew(ext)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nU; i++ {
			if before.InU[i] && !after.InU[i] {
				t.Fatalf("trial %d: Lemma 1(A) violated — source U[%d] chosen before extension but not after", trial, i)
			}
		}
	}
}

func TestLemma1RemovingAddedSourcesKeepsChosenSources(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for trial := 0; trial < 400; trial++ {
		nU, nV := 1+rng.Intn(5), 1+rng.Intn(5)
		base := randProblem(rng, nU, nV, 0)

		// Extend with new source vertices X and random edges X×V, solve,
		// then check the restriction back to the base problem.
		ext := &Problem{
			U:     append([]Vertex(nil), base.U...),
			V:     append([]Vertex(nil), base.V...),
			Edges: append([][2]int(nil), base.Edges...),
		}
		nX := 1 + rng.Intn(3)
		for k := 0; k < nX; k++ {
			ext.U = append(ext.U, Vertex{Key: 100 + k, Weight: int64(1 + rng.Intn(6))})
			for j := 0; j < nV; j++ {
				if rng.Float64() < 0.4 {
					ext.Edges = append(ext.Edges, [2]int{nU + k, j})
				}
			}
		}
		extSol, err := solveNew(ext)
		if err != nil {
			t.Fatal(err)
		}
		baseSol, err := solveNew(base)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nU; i++ {
			if extSol.InU[i] && !baseSol.InU[i] {
				t.Fatalf("trial %d: Lemma 1(B) violated — source U[%d] chosen in extension but not in base", trial, i)
			}
		}
	}
}

// TestTheorem1EdgePairConsistency models the theorem's actual use: an
// upstream edge's problem extends the downstream edge's destination side
// (sources join upstream, destinations join downstream). If the
// downstream optimum transmits a shared source raw, the upstream optimum
// must too — otherwise the plan would be infeasible.
func TestTheorem1EdgePairConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for trial := 0; trial < 300; trial++ {
		// Shared core: sources U0 × destinations V0 (pairs crossing both
		// edges). Upstream adds extra destinations V- (peeling off before
		// the downstream edge); downstream adds extra sources U+ (joining
		// after the upstream edge).
		nU0, nV0 := 1+rng.Intn(4), 1+rng.Intn(4)
		up := randProblem(rng, nU0, nV0, 0)

		down := &Problem{
			U:     append([]Vertex(nil), up.U...),
			V:     append([]Vertex(nil), up.V...),
			Edges: append([][2]int(nil), up.Edges...),
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			down.U = append(down.U, Vertex{Key: 200 + k, Weight: int64(1 + rng.Intn(6))})
			for j := 0; j < nV0; j++ {
				if rng.Float64() < 0.4 {
					down.Edges = append(down.Edges, [2]int{nU0 + k, j})
				}
			}
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			up.V = append(up.V, Vertex{Key: 300 + k, Weight: int64(1 + rng.Intn(6))})
			for i := 0; i < nU0; i++ {
				if rng.Float64() < 0.4 {
					up.Edges = append(up.Edges, [2]int{i, nV0 + k})
				}
			}
		}

		upSol, err := solveNew(up)
		if err != nil {
			t.Fatal(err)
		}
		downSol, err := solveNew(down)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nU0; i++ {
			if downSol.InU[i] && !upSol.InU[i] {
				t.Fatalf("trial %d: downstream wants source U[%d] raw but upstream aggregated it", trial, i)
			}
		}
	}
}

package vcover

import (
	"math/big"
	"math/rand"
	"testing"
)

// perturbedObjective computes the canonically perturbed weight of a cover
// with the raw keys (the slow path's objective), as an exact big integer.
func perturbedObjective(p *Problem, s *Solution) *big.Int {
	maxKey := 0
	for _, x := range p.U {
		if x.Key > maxKey {
			maxKey = x.Key
		}
	}
	for _, y := range p.V {
		if y.Key > maxKey {
			maxKey = y.Key
		}
	}
	shift := uint(maxKey + 1)
	total := new(big.Int)
	add := func(v Vertex) {
		w := new(big.Int).SetInt64(v.Weight)
		w.Lsh(w, shift)
		w.Add(w, new(big.Int).Lsh(big.NewInt(1), uint(v.Key)))
		total.Add(total, w)
	}
	for i, in := range s.InU {
		if in {
			add(p.U[i])
		}
	}
	for j, in := range s.InV {
		if in {
			add(p.V[j])
		}
	}
	return total
}

func sameMembership(a, b *Solution) bool {
	if len(a.InU) != len(b.InU) || len(a.InV) != len(b.InV) {
		return false
	}
	for i := range a.InU {
		if a.InU[i] != b.InU[i] {
			return false
		}
	}
	for j := range a.InV {
		if a.InV[j] != b.InV[j] {
			return false
		}
	}
	return true
}

// randomProblem draws a problem whose keys are spread out (sparse, like
// the planner's 2·nodeID+role scheme) and whose weights come from the
// given generator.
func randomProblem(rng *rand.Rand, maxSide int, weight func() int64) *Problem {
	nU, nV := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
	p := &Problem{}
	key := rng.Intn(7)
	for i := 0; i < nU; i++ {
		p.U = append(p.U, Vertex{Key: key, Weight: weight()})
		key += 1 + rng.Intn(9)
	}
	for j := 0; j < nV; j++ {
		p.V = append(p.V, Vertex{Key: key, Weight: weight()})
		key += 1 + rng.Intn(9)
	}
	for i := 0; i < nU; i++ {
		for j := 0; j < nV; j++ {
			if rng.Float64() < 0.4 {
				p.Edges = append(p.Edges, [2]int{i, j})
			}
		}
	}
	return p
}

// TestFastAndBigPathsAgree is the differential property test of the two
// arithmetic back ends: on randomized weighted cover problems, the uint128
// fast path and the math/big slow path must agree exactly on cover
// membership, true weight, and the (raw-key) perturbed objective.
func TestFastAndBigPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng, 8, func() int64 { return int64(rng.Intn(1 << uint(1+rng.Intn(20)))) })
		fast, err := solveWith(p, false)
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		big_, err := solveWith(p, true)
		if err != nil {
			t.Fatalf("trial %d: big: %v", trial, err)
		}
		if !sameMembership(fast, big_) {
			t.Fatalf("trial %d: membership differs: fast U=%v V=%v, big U=%v V=%v",
				trial, fast.ChosenU(), fast.ChosenV(), big_.ChosenU(), big_.ChosenV())
		}
		if fast.Weight != big_.Weight {
			t.Fatalf("trial %d: weight %d vs %d", trial, fast.Weight, big_.Weight)
		}
		if perturbedObjective(p, fast).Cmp(perturbedObjective(p, big_)) != 0 {
			t.Fatalf("trial %d: perturbed objective differs", trial)
		}
	}
}

// TestNearOverflowWeightsFallBack drives weights up to the edge of (and
// past) the 128-bit budget: both back ends must still agree exactly, and
// problems that cannot fit must be routed to the big path automatically.
func TestNearOverflowWeightsFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(255))
	sawBigFallback := 0
	for trial := 0; trial < 120; trial++ {
		// Weights around 2^55..2^62: a handful of vertices pushes the
		// perturbed sum across the uint128 boundary.
		p := randomProblem(rng, 5, func() int64 { return (1 << 55) + rng.Int63n(1<<62) })
		sc := scratchPool.Get().(*scratch)
		if err := sc.validate(p); err != nil {
			t.Fatal(err)
		}
		if !sc.fitsFast() {
			sawBigFallback++
		}
		scratchPool.Put(sc)
		fast, err := solveNew(p) // automatic selection
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := solveWith(p, true)
		if err != nil {
			t.Fatalf("trial %d: ref: %v", trial, err)
		}
		if !sameMembership(fast, ref) || fast.Weight != ref.Weight {
			t.Fatalf("trial %d: automatic path disagrees with math/big", trial)
		}
	}
	if sawBigFallback == 0 {
		t.Fatal("no trial exercised the math/big fallback; weights too small")
	}
}

// TestFastPathAgainstBruteForce pins both exact solvers against exhaustive
// enumeration of the perturbed objective.
func TestFastPathAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 250; trial++ {
		p := randomProblem(rng, 5, func() int64 { return int64(1 + rng.Intn(12)) })
		fast, err := solveWith(p, false)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(p)
		if !sameMembership(fast, want) {
			t.Fatalf("trial %d: fast path differs from brute force: U=%v V=%v want U=%v V=%v",
				trial, fast.ChosenU(), fast.ChosenV(), want.ChosenU(), want.ChosenV())
		}
		if fast.Weight != want.Weight {
			t.Fatalf("trial %d: weight %d, brute force %d", trial, fast.Weight, want.Weight)
		}
	}
}

// TestHugeKeysStayFast exercises the planner's sparse key regime at
// 100k-node scale: keys near 2·100000 remain fast-path (ranks compress
// them) even though 2^key would need a 200k-bit big integer.
func TestHugeKeysStayFast(t *testing.T) {
	p := &Problem{}
	for i := 0; i < 30; i++ {
		p.U = append(p.U, Vertex{Key: 2 * (100000 + i), Weight: 6})
	}
	for j := 0; j < 10; j++ {
		p.V = append(p.V, Vertex{Key: 2*(200000+j) + 1, Weight: 14})
		for i := 0; i < 30; i++ {
			if (i+j)%3 != 0 {
				p.Edges = append(p.Edges, [2]int{i, j})
			}
		}
	}
	sc := scratchPool.Get().(*scratch)
	if err := sc.validate(p); err != nil {
		t.Fatal(err)
	}
	if !sc.fitsFast() {
		t.Fatal("sparse huge keys should rank-compress into the fast path")
	}
	scratchPool.Put(sc)
	fast, err := solveWith(p, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solveWith(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMembership(fast, ref) || fast.Weight != ref.Weight {
		t.Fatal("fast path differs from math/big on huge keys")
	}
}

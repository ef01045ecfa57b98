// Package vcover solves minimum-weight vertex cover on bipartite graphs,
// the core optimization of the paper's single-edge problem (Section 2.2).
//
// The reduction is classical (König/network-flow): attach a super-source S
// to every U-vertex with capacity equal to its weight, every V-vertex to a
// super-sink T likewise, and give the bipartite edges infinite capacity.
// A minimum S–T cut then cuts exactly one "vertex arc" per covered vertex,
// so the min cut is the min-weight cover; we extract it from residual
// reachability after running Dinic's algorithm.
//
// Theorem 1 of the paper requires every per-edge cover to be UNIQUE, with
// tiebreaks consistent across all edges of the network. We implement the
// paper's "minuscule weights" exactly: each vertex carries a globally
// unique Key, and its effective capacity is weight·2^B + 2^Key for a shift
// B larger than every key. Distinct covers then have distinct perturbed
// weights (bit sets differ), so the minimum is unique, and the perturbation
// depends only on the vertex identity — the same everywhere in the network.
//
// Two exact arithmetic back ends implement this, selected automatically:
//
//   - A fixed-width two-limb uint128 fast path. Keys are compressed to
//     their rank within the problem's key set (a monotone remap, which
//     preserves every comparison of perturbed sums and therefore the
//     unique optimum), so a problem with m vertices and total true weight
//     W needs bits(W+1) + m ≤ 127 bits — true for every realistic
//     single-edge problem. Its flow networks are pooled scratch, and the
//     cover is written into storage the caller owns: a solve into flags
//     of the right size allocates nothing.
//   - The original math/big slow path, kept behind the same interface for
//     problems that would overflow 128 bits and as the differential-test
//     reference (it uses the raw keys, unremapped).
package vcover

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Vertex is one side's entry in a single-edge problem.
type Vertex struct {
	// Key is the globally unique tiebreak identity of this vertex. Two
	// problem instances mentioning the same network node in the same role
	// must use the same Key (the planner uses 2·nodeID+role).
	Key int
	// Weight is the true transmission cost (bytes) of choosing this vertex.
	Weight int64
}

// Problem is a weighted bipartite vertex cover instance. U conventionally
// holds sources (raw transmission) and V destinations (partial aggregate
// transmission). Edges pair indices into U and V.
type Problem struct {
	U, V  []Vertex
	Edges [][2]int
}

// Solution is a vertex cover of a Problem: InU[i] and InV[j] flag the
// chosen vertices U[i] and V[j].
type Solution struct {
	InU, InV []bool
	// Weight is the true (unperturbed) total weight of the cover.
	Weight int64
}

// Covers reports whether s covers every edge of p.
func (s *Solution) Covers(p *Problem) bool {
	for _, e := range p.Edges {
		if !s.InU[e[0]] && !s.InV[e[1]] {
			return false
		}
	}
	return true
}

// scratch is the pooled per-solve state shared by validation and the
// uint128 flow network. One scratch serves one solve at a time; the pool
// makes concurrent solves allocation-lean.
type scratch struct {
	keys     []int  // all vertex keys, sorted (rank compression + dup check)
	sumW     uint64 // total true weight of all vertices
	overflow bool   // sumW overflowed uint64
	net      fastNet
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// validate checks p (same rules as the former map-based Validate) and
// leaves the sorted key set and weight sum behind for the solver.
func (sc *scratch) validate(p *Problem) error {
	sc.keys = sc.keys[:0]
	sc.sumW, sc.overflow = 0, false
	for i, x := range p.U {
		if x.Weight < 0 {
			return fmt.Errorf("vcover: U[%d] has negative weight %d", i, x.Weight)
		}
		if x.Key < 0 {
			return fmt.Errorf("vcover: U[%d] has negative key %d", i, x.Key)
		}
		sc.keys = append(sc.keys, x.Key)
		sc.addWeight(x.Weight)
	}
	for j, y := range p.V {
		if y.Weight < 0 {
			return fmt.Errorf("vcover: V[%d] has negative weight %d", j, y.Weight)
		}
		if y.Key < 0 {
			return fmt.Errorf("vcover: V[%d] has negative key %d", j, y.Key)
		}
		sc.keys = append(sc.keys, y.Key)
		sc.addWeight(y.Weight)
	}
	sort.Ints(sc.keys)
	for k := 1; k < len(sc.keys); k++ {
		if sc.keys[k] == sc.keys[k-1] {
			return fmt.Errorf("vcover: duplicate key %d", sc.keys[k])
		}
	}
	for _, e := range p.Edges {
		if e[0] < 0 || e[0] >= len(p.U) || e[1] < 0 || e[1] >= len(p.V) {
			return fmt.Errorf("vcover: edge %v out of range", e)
		}
	}
	return nil
}

func (sc *scratch) addWeight(w int64) {
	s := sc.sumW + uint64(w)
	if s < sc.sumW {
		sc.overflow = true
	}
	sc.sumW = s
}

// fitsFast reports whether the perturbed arithmetic fits uint128 with
// headroom: the largest solver value is the edge capacity
// (sumW+1)·2^m < 2^127, where m is the vertex count (the rank shift).
func (sc *scratch) fitsFast() bool {
	return !sc.overflow && sc.sumW < math.MaxUint64 &&
		bits.Len64(sc.sumW+1)+len(sc.keys) <= 127
}

// Solve writes the unique minimum-weight vertex cover of p under the
// canonical key perturbation into sol. InU and InV are resized to p's two
// sides, keeping their storage when it is large enough, and every flag is
// set, so a caller that hands in flags of exactly the right size (a plan's
// cover row) makes the solve allocation-free.
func Solve(p *Problem, sol *Solution) error {
	return solve(p, sol, false)
}

// solve is the implementation; forceBig pins the math/big slow path
// regardless of fit (differential tests).
func solve(p *Problem, sol *Solution, forceBig bool) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := sc.validate(p); err != nil {
		return err
	}

	var reach []bool
	if !forceBig && sc.fitsFast() {
		reach = sc.net.run(p.U, p.V, p.Edges, sc.keys, sc.sumW)
	} else {
		reach = solveBig(p)
	}
	sol.InU = resize(sol.InU, len(p.U))
	sol.InV = resize(sol.InV, len(p.V))
	sol.Weight = 0

	// Min cut from residual reachability: U-vertices unreachable from the
	// source have their vertex arc saturated (chosen); V-vertices reachable
	// from the source must be chosen to cut their sink arc. An isolated
	// U-vertex is always reachable (capacity > 0 thanks to the
	// perturbation bit), so an unreachable one was needed.
	nU := len(p.U)
	for i := range p.U {
		sol.InU[i] = !reach[2+i]
		if sol.InU[i] {
			sol.Weight += p.U[i].Weight
		}
	}
	for j := range p.V {
		sol.InV[j] = reach[2+nU+j]
		if sol.InV[j] {
			sol.Weight += p.V[j].Weight
		}
	}

	if !sol.Covers(p) {
		return fmt.Errorf("vcover: internal error: extracted non-cover")
	}
	return nil
}

// resize returns b with length n, reusing its storage when it can.
func resize(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

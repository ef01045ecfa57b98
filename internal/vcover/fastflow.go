package vcover

import (
	"sort"
)

// fastArc is one directed arc of the fixed-width flow network. Arcs are
// appended in forward/reverse pairs, so the reverse of arc i is arc i^1.
type fastArc struct {
	to  int32
	cap u128
}

// fastNet is the uint128 Dinic solver. All of its storage is scratch that
// survives across solves (see scratchPool): arc lists, the CSR adjacency,
// level/iterator arrays, the BFS queue, the explicit DFS path stack, and
// the residual-reachability marks. A solve allocates nothing.
type fastNet struct {
	arcs      []fastArc
	headStart []int32 // CSR offsets per vertex, len n+1
	arcIdx    []int32 // CSR arc ids, len len(arcs)
	fillPos   []int32
	level     []int32
	iter      []int32
	queue     []int32
	path      []int32 // DFS stack of arc ids (explicit, never recursive)
	reach     []bool
}

// rankOf returns the perturbation bit of key: its index in the problem's
// sorted key set. Ranks compress the globally unique keys (which may be as
// large as 2·nodeID+1) to [0, m) while preserving their order, and
// comparing sums of distinct powers of two depends only on that order, so
// the rank-perturbed optimum is the same cover as the key-perturbed one.
func rankOf(keys []int, key int) uint {
	return uint(sort.SearchInts(keys, key))
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// run builds the perturbed flow network for the problem's vertices and
// edges and returns the residual source-side reachability after max
// flow — the canonical min cut. keys is the problem's full sorted key set;
// sumW the sum of all vertex weights (fitsFast guarantees headroom).
func (f *fastNet) run(U, V []Vertex, edges [][2]int, keys []int, sumW uint64) []bool {
	nU, nV := len(U), len(V)
	n := 2 + nU + nV
	const src, snk = 0, 1
	m := uint(len(keys))

	f.arcs = f.arcs[:0]
	addArc := func(u, v int32, c u128) {
		f.arcs = append(f.arcs, fastArc{to: v, cap: c}, fastArc{to: u})
	}
	for i, x := range U {
		c := u128Shifted(uint64(x.Weight), m).add(u128Bit(rankOf(keys, x.Key)))
		addArc(src, int32(2+i), c)
	}
	for j, y := range V {
		c := u128Shifted(uint64(y.Weight), m).add(u128Bit(rankOf(keys, y.Key)))
		addArc(int32(2+nU+j), snk, c)
	}
	// "Infinite" capacity for the bipartite edges: strictly larger than the
	// sum of every vertex capacity, (sumW+1)·2^m > sumW·2^m + (2^m - 1).
	inf := u128Shifted(sumW+1, m)
	for _, e := range edges {
		addArc(int32(2+e[0]), int32(2+nU+e[1]), inf)
	}

	f.buildCSR(n)
	for f.bfsLevels(src, snk, n) {
		copy(f.iter, f.headStart[:n])
		f.blockingFlow(src, snk)
	}
	return f.residualReachable(src, n)
}

// buildCSR derives the per-vertex adjacency (arc id lists) from the flat
// arc array. The tail of arc i is the head of its pair arc i^1.
func (f *fastNet) buildCSR(n int) {
	f.headStart = growI32(f.headStart, n+1)
	for i := range f.headStart {
		f.headStart[i] = 0
	}
	for i := range f.arcs {
		f.headStart[f.arcs[i^1].to+1]++
	}
	for i := 0; i < n; i++ {
		f.headStart[i+1] += f.headStart[i]
	}
	f.fillPos = growI32(f.fillPos, n)
	copy(f.fillPos, f.headStart[:n])
	f.arcIdx = growI32(f.arcIdx, len(f.arcs))
	for i := range f.arcs {
		tail := f.arcs[i^1].to
		f.arcIdx[f.fillPos[tail]] = int32(i)
		f.fillPos[tail]++
	}
	f.level = growI32(f.level, n)
	f.iter = growI32(f.iter, n)
	if cap(f.queue) < n {
		f.queue = make([]int32, 0, n)
	}
}

func (f *fastNet) bfsLevels(src, snk int32, n int) bool {
	for i := 0; i < n; i++ {
		f.level[i] = -1
	}
	f.level[src] = 0
	q := f.queue[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for k := f.headStart[u]; k < f.headStart[u+1]; k++ {
			a := &f.arcs[f.arcIdx[k]]
			if !a.cap.isZero() && f.level[a.to] == -1 {
				f.level[a.to] = f.level[u] + 1
				q = append(q, a.to)
			}
		}
	}
	f.queue = q[:0]
	return f.level[snk] != -1
}

// blockingFlow saturates every level-increasing augmenting path with an
// explicit stack of arc ids — deep residual paths on large instances can
// never overflow the goroutine stack, unlike the recursive formulation.
func (f *fastNet) blockingFlow(src, snk int32) {
	path := f.path[:0]
	u := src
	for {
		if u == snk {
			// Bottleneck along the path, then augment and retreat to the
			// tail of the first saturated arc.
			min := f.arcs[path[0]].cap
			for _, ai := range path[1:] {
				if f.arcs[ai].cap.cmp(min) < 0 {
					min = f.arcs[ai].cap
				}
			}
			cut := 0
			for k, ai := range path {
				a := &f.arcs[ai]
				a.cap = a.cap.sub(min)
				rev := &f.arcs[ai^1]
				rev.cap = rev.cap.add(min)
				if a.cap.isZero() && cut == 0 {
					cut = k + 1 // first saturated arc is path[cut-1]
				}
			}
			sat := path[cut-1]
			path = path[:cut-1]
			u = f.arcs[sat^1].to
			continue
		}
		advanced := false
		for f.iter[u] < f.headStart[u+1] {
			ai := f.arcIdx[f.iter[u]]
			a := &f.arcs[ai]
			if !a.cap.isZero() && f.level[a.to] == f.level[u]+1 {
				path = append(path, ai)
				u = a.to
				advanced = true
				break
			}
			f.iter[u]++
		}
		if !advanced {
			if u == src {
				break
			}
			f.level[u] = -1 // dead end; prune for the rest of this phase
			last := path[len(path)-1]
			path = path[:len(path)-1]
			u = f.arcs[last^1].to
			f.iter[u]++
		}
	}
	f.path = path[:0]
}

func (f *fastNet) residualReachable(src int32, n int) []bool {
	if cap(f.reach) < n {
		f.reach = make([]bool, n)
	}
	f.reach = f.reach[:n]
	for i := range f.reach {
		f.reach[i] = false
	}
	f.reach[src] = true
	q := f.queue[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for k := f.headStart[u]; k < f.headStart[u+1]; k++ {
			a := &f.arcs[f.arcIdx[k]]
			if !a.cap.isZero() && !f.reach[a.to] {
				f.reach[a.to] = true
				q = append(q, a.to)
			}
		}
	}
	f.queue = q[:0]
	return f.reach
}

package vcover

import "math/big"

// flowNet is a Dinic max-flow network with arbitrary-precision capacities:
// the slow path behind Solve, used when a problem's perturbed
// arithmetic would overflow 128 bits (see the package comment) and as the
// differential-test reference. It works on the raw vertex keys, so its
// capacities can span thousands of bits.
type flowNet struct {
	arcs  []arc
	heads [][]int // per-vertex arc indices
	level []int
	iter  []int
}

type arc struct {
	to  int
	cap *big.Int // remaining capacity
	rev int      // index of the reverse arc in arcs
}

func newFlowNet(n int) *flowNet {
	return &flowNet{
		heads: make([][]int, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

// solveBig builds the perturbed math/big flow network for p and returns
// residual source-side reachability after max flow. It mirrors
// fastNet.run exactly, with the original (unremapped) keys and the
// original maxKey+1 shift.
func solveBig(p *Problem) []bool {
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

	perturbed := func(v Vertex) *big.Int {
		w := new(big.Int).SetInt64(v.Weight)
		w.Lsh(w, shift)
		bit := new(big.Int).Lsh(big.NewInt(1), uint(v.Key))
		return w.Add(w, bit)
	}

	// Flow network: 0 = source, 1 = sink, U-vertex i -> 2+i,
	// V-vertex j -> 2+len(U)+j.
	nU, nV := len(p.U), len(p.V)
	net := newFlowNet(2 + nU + nV)
	const src, snk = 0, 1
	total := new(big.Int)
	for i, x := range p.U {
		c := perturbed(x)
		total.Add(total, c)
		net.addArc(src, 2+i, c)
	}
	for j, y := range p.V {
		c := perturbed(y)
		total.Add(total, c)
		net.addArc(2+nU+j, snk, c)
	}
	inf := new(big.Int).Add(total, big.NewInt(1))
	for _, e := range p.Edges {
		net.addArc(2+e[0], 2+nU+e[1], new(big.Int).Set(inf))
	}

	// inf exceeds the sum of every vertex capacity, so it bounds the max
	// flow — and any single augmentation — without re-summing arcs.
	net.maxflow(src, snk, inf)
	return net.residualReachable(src)
}

func (f *flowNet) addArc(u, v int, capacity *big.Int) {
	f.heads[u] = append(f.heads[u], len(f.arcs))
	f.arcs = append(f.arcs, arc{to: v, cap: capacity, rev: len(f.arcs) + 1})
	f.heads[v] = append(f.heads[v], len(f.arcs))
	f.arcs = append(f.arcs, arc{to: u, cap: new(big.Int), rev: len(f.arcs) - 1})
}

func (f *flowNet) bfsLevels(src, snk int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range f.heads[u] {
			a := &f.arcs[ai]
			if a.cap.Sign() > 0 && f.level[a.to] == -1 {
				f.level[a.to] = f.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return f.level[snk] != -1
}

// dfsBlock pushes flow along level-increasing paths; limit caps the pushed
// amount. Returns the amount pushed (zero Sign means none).
func (f *flowNet) dfsBlock(u, snk int, limit *big.Int) *big.Int {
	if u == snk {
		return new(big.Int).Set(limit)
	}
	for ; f.iter[u] < len(f.heads[u]); f.iter[u]++ {
		ai := f.heads[u][f.iter[u]]
		a := &f.arcs[ai]
		if a.cap.Sign() <= 0 || f.level[a.to] != f.level[u]+1 {
			continue
		}
		next := limit
		if a.cap.Cmp(limit) < 0 {
			next = a.cap
		}
		pushed := f.dfsBlock(a.to, snk, next)
		if pushed.Sign() > 0 {
			a.cap.Sub(a.cap, pushed)
			f.arcs[a.rev].cap.Add(f.arcs[a.rev].cap, pushed)
			return pushed
		}
	}
	return new(big.Int)
}

// maxflow runs Dinic to completion and returns the max-flow value. The
// caller supplies limit, an upper bound on any single augmentation,
// derived once from the problem weights (the old code re-summed every arc
// capacity — including the huge "infinite" edge arcs — on each call).
func (f *flowNet) maxflow(src, snk int, limit *big.Int) *big.Int {
	total := new(big.Int)
	for f.bfsLevels(src, snk) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			pushed := f.dfsBlock(src, snk, limit)
			if pushed.Sign() == 0 {
				break
			}
			total.Add(total, pushed)
		}
	}
	return total
}

// residualReachable returns the set of vertices reachable from src in the
// residual graph after maxflow — the source side of the canonical min cut.
func (f *flowNet) residualReachable(src int) []bool {
	reach := make([]bool, len(f.heads))
	reach[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range f.heads[u] {
			a := &f.arcs[ai]
			if a.cap.Sign() > 0 && !reach[a.to] {
				reach[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return reach
}

package graph

import "math/bits"

// Arc is the directed arc From -> To of a Digraph.
type Arc struct{ From, To int32 }

// Digraph is a directed graph over integer vertex IDs 0..n-1, used for
// dependency analysis (wait-for graphs between message units and messages).
// It is immutable and stored as compressed sparse rows: the out-arcs of u
// are head[off[u]:off[u+1]].
type Digraph struct {
	off  []int32
	head []int32
}

// NewDigraph returns the digraph on n vertices with the given arcs, which
// must lie in [0, n). Duplicate arcs are kept: every query below depends
// only on the set of arcs. Self-loops are recorded (they make the graph
// cyclic).
func NewDigraph(n int, arcs []Arc) *Digraph {
	// Count each tail's arcs at off[tail], turn the counts into row ends,
	// then place arcs back to front so each row ends up at its start.
	off := make([]int32, n+1)
	for _, a := range arcs {
		off[a.From]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	head := make([]int32, len(arcs))
	for i := len(arcs) - 1; i >= 0; i-- {
		a := arcs[i]
		off[a.From]--
		head[off[a.From]] = a.To
	}
	return &Digraph{off: off, head: head}
}

// Len returns the vertex count.
func (d *Digraph) Len() int { return len(d.off) - 1 }

// out returns u's successors, one entry per arc.
func (d *Digraph) out(u int32) []int32 { return d.head[d.off[u]:d.off[u+1]] }

// HasCycle reports whether d contains a directed cycle.
func (d *Digraph) HasCycle() bool { return len(d.kahn()) != d.Len() }

// TopoSort returns a topological order of d and true, or nil and false if d
// is cyclic. Among available vertices the smallest ID is emitted first, so
// the order is deterministic.
func (d *Digraph) TopoSort() ([]int, bool) {
	order := d.kahn()
	if len(order) != d.Len() {
		return nil, false
	}
	return order, true
}

// CyclicCore returns the vertices that participate in (or are locked
// behind) directed cycles: exactly those Kahn's algorithm can never emit.
// Empty for a DAG.
func (d *Digraph) CyclicCore() []int {
	order := d.kahn()
	if len(order) == d.Len() {
		return nil
	}
	emitted := make([]bool, d.Len())
	for _, u := range order {
		emitted[u] = true
	}
	core := make([]int, 0, d.Len()-len(order))
	for v, ok := range emitted {
		if !ok {
			core = append(core, v)
		}
	}
	return core
}

// kahn is Kahn's algorithm emitting the smallest ready vertex first. It
// returns the emitted vertices in order: all of them for a DAG, and
// otherwise every vertex not on or behind a cycle.
func (d *Digraph) kahn() []int {
	n := d.Len()
	indeg := make([]int32, n)
	for _, v := range d.head {
		indeg[v]++
	}
	ready := newReadySet(n)
	for u, k := range indeg {
		if k == 0 {
			ready.add(int32(u))
		}
	}
	order := make([]int, 0, n)
	for {
		u, ok := ready.pop()
		if !ok {
			return order
		}
		order = append(order, int(u))
		for _, v := range d.out(u) {
			if indeg[v]--; indeg[v] == 0 {
				ready.add(v)
			}
		}
	}
}

// Reaches reports whether there is a directed path from u to v (of length
// >= 0; Reaches(u, u) is always true).
func (d *Digraph) Reaches(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, d.Len())
	stack := []int32{int32(u)}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range d.out(x) {
			if int(y) == v {
				return true
			}
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return false
}

// readySet is Kahn's frontier: a two-level bitset over vertex IDs. Bit i
// of summary marks word i of words nonzero, so the smallest member is two
// trailing-zero counts away, and lowest bounds the first nonzero summary
// word from below.
type readySet struct {
	words   []uint64
	summary []uint64
	lowest  int
}

func newReadySet(n int) readySet {
	nw := (n + 63) / 64
	ns := (nw + 63) / 64
	buf := make([]uint64, nw+ns)
	return readySet{words: buf[:nw:nw], summary: buf[nw:], lowest: ns}
}

func (r *readySet) add(v int32) {
	w := int(v >> 6)
	r.words[w] |= 1 << uint(v&63)
	s := w >> 6
	r.summary[s] |= 1 << uint(w&63)
	if s < r.lowest {
		r.lowest = s
	}
}

// pop removes and returns the smallest member, or false if r is empty.
func (r *readySet) pop() (int32, bool) {
	for ; r.lowest < len(r.summary); r.lowest++ {
		sw := r.summary[r.lowest]
		if sw == 0 {
			continue
		}
		w := r.lowest<<6 | bits.TrailingZeros64(sw)
		b := bits.TrailingZeros64(r.words[w])
		if r.words[w] &= r.words[w] - 1; r.words[w] == 0 {
			r.summary[r.lowest] &= sw - 1
		}
		return int32(w<<6 | b), true
	}
	return 0, false
}

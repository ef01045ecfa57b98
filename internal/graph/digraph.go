package graph

// Digraph is a directed graph over integer vertex IDs 0..n-1, used for
// dependency analysis (wait-for graphs between message units and messages).
type Digraph struct {
	n   int
	out [][]int
}

// NewDigraph returns an empty digraph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, out: make([][]int, n)}
}

// Len returns the vertex count.
func (d *Digraph) Len() int { return d.n }

// AddArc adds the arc u -> v. Duplicate arcs are ignored; self-loops are
// recorded (they make the graph cyclic).
func (d *Digraph) AddArc(u, v int) {
	for _, w := range d.out[u] {
		if w == v {
			return
		}
	}
	d.out[u] = append(d.out[u], v)
}

// HasCycle reports whether d contains a directed cycle.
func (d *Digraph) HasCycle() bool {
	_, ok := d.TopoSort()
	return !ok
}

// TopoSort returns a topological order of d and true, or nil and false if d
// is cyclic. Among available vertices the smallest ID is emitted first, so
// the order is deterministic (Kahn's algorithm with a sorted frontier).
func (d *Digraph) TopoSort() ([]int, bool) {
	indeg := make([]int, d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			indeg[v]++
		}
	}
	frontier := &intHeap{}
	for u := 0; u < d.n; u++ {
		if indeg[u] == 0 {
			frontier.push(u)
		}
	}
	order := make([]int, 0, d.n)
	for frontier.Len() > 0 {
		u := frontier.pop()
		order = append(order, u)
		for _, v := range d.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier.push(v)
			}
		}
	}
	if len(order) != d.n {
		return nil, false
	}
	return order, true
}

// CyclicCore returns the vertices that participate in (or are locked
// behind) directed cycles: exactly those Kahn's algorithm can never emit.
// Empty for a DAG.
func (d *Digraph) CyclicCore() []int {
	indeg := make([]int, d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			indeg[v]++
		}
	}
	frontier := &intHeap{}
	for u := 0; u < d.n; u++ {
		if indeg[u] == 0 {
			frontier.push(u)
		}
	}
	emitted := make([]bool, d.n)
	count := 0
	for frontier.Len() > 0 {
		u := frontier.pop()
		emitted[u] = true
		count++
		for _, v := range d.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier.push(v)
			}
		}
	}
	if count == d.n {
		return nil
	}
	core := make([]int, 0, d.n-count)
	for v := 0; v < d.n; v++ {
		if !emitted[v] {
			core = append(core, v)
		}
	}
	return core
}

// Reaches reports whether there is a directed path from u to v (of length
// >= 0; Reaches(u, u) is always true).
func (d *Digraph) Reaches(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, d.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range d.out[x] {
			if y == v {
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

// intHeap is a tiny binary min-heap over ints (avoids container/heap
// interface boxing in the hot scheduling path).
type intHeap struct{ a []int }

func (h *intHeap) Len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.a) && h.a[l] < h.a[m] {
			m = l
		}
		if r < len(h.a) && h.a[r] < h.a[m] {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}

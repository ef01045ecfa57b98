// Package plan implements the paper's many-to-many aggregation optimizer:
// it reduces each directed multicast edge to a weighted bipartite vertex
// cover (Section 2.2), assembles the independently solved edges into a
// consistent global plan (Section 2.3, Theorem 1), builds the four
// per-node runtime tables (Section 3), and supports incremental
// re-optimization when the workload changes (Corollary 1).
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
)

// Pair is one producer→consumer relationship: Source ∼ Dest.
type Pair struct {
	Source, Dest graph.NodeID
}

// Instance is a fully resolved optimization input: the workload plus the
// canonical route of every pair and, per directed edge, the pairs whose
// route crosses it (the ∼_e relation).
//
// EdgeList is the planner's one edge index: every per-edge table (the
// pairs here, Plan.Sol) is a slice aligned with it, and EdgeIndex maps an
// edge to its position.
type Instance struct {
	Net    *graph.Undirected
	Router routing.Router
	Specs  []agg.Spec

	// SpecByDest indexes Specs by destination (one function per node, as in
	// the paper).
	SpecByDest map[graph.NodeID]agg.Spec
	// Paths holds the canonical route of every pair, endpoints inclusive.
	Paths map[Pair][]graph.NodeID
	// EdgeList holds every edge with at least one pair, sorted by
	// (From, To).
	EdgeList []routing.Edge

	// The pairs crossing EdgeList[i] are pairs[pairOff[i]:pairOff[i+1]],
	// sorted by (Source, Dest): compressed sparse rows aligned with
	// EdgeList.
	pairOff []int32
	pairs   []Pair
}

// hop is one (edge, pair) incidence: the path of pr crosses e.
type hop struct {
	e  routing.Edge
	pr Pair
}

// NewInstance resolves routes for every pair of the workload and verifies
// the router's per-destination suffix property, reporting the first
// violation in spec order. Specs must have distinct destinations and
// non-empty source sets.
func NewInstance(net *graph.Undirected, router routing.Router, specs []agg.Spec) (*Instance, error) {
	inst := &Instance{
		Net:        net,
		Router:     router,
		Specs:      append([]agg.Spec(nil), specs...),
		SpecByDest: make(map[graph.NodeID]agg.Spec, len(specs)),
	}
	sources := make([][]graph.NodeID, len(inst.Specs))
	npairs := 0
	for i, sp := range inst.Specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if int(sp.Dest) < 0 || int(sp.Dest) >= net.Len() {
			return nil, fmt.Errorf("plan: destination %d out of range", sp.Dest)
		}
		if _, dup := inst.SpecByDest[sp.Dest]; dup {
			return nil, fmt.Errorf("plan: destination %d has two aggregation functions", sp.Dest)
		}
		inst.SpecByDest[sp.Dest] = sp
		sources[i] = sp.Func.Sources()
		npairs += len(sources[i])
	}

	inst.Paths = make(map[Pair][]graph.NodeID, npairs)
	var hops []hop
	// A routing error outranks a suffix violation, so the first violation
	// is remembered while routing goes on.
	var suffixErr error
	suffix := routing.NewSuffixChecker(net.Len())
	for i, sp := range inst.Specs {
		suffix.Begin(sp.Dest)
		for _, s := range sources[i] {
			if int(s) < 0 || int(s) >= net.Len() {
				return nil, fmt.Errorf("plan: source %d out of range", s)
			}
			pr := Pair{Source: s, Dest: sp.Dest}
			path, err := router.Path(s, sp.Dest)
			if err != nil {
				return nil, fmt.Errorf("plan: routing pair %d→%d: %w", s, sp.Dest, err)
			}
			inst.Paths[pr] = path
			if suffixErr != nil {
				continue
			}
			if suffixErr = suffix.Add(path); suffixErr != nil {
				continue
			}
			for j := 0; j+1 < len(path); j++ {
				hops = append(hops, hop{e: routing.Edge{From: path[j], To: path[j+1]}, pr: pr})
			}
		}
	}
	if suffixErr != nil {
		return nil, fmt.Errorf("plan: router %q unusable: %w", router.Name(), suffixErr)
	}
	inst.indexEdges(hops)
	return inst, nil
}

// indexEdges builds EdgeList and the pair rows from the routed hops. A
// counting sort by tail node followed by a sort of each tail's few hops by
// (head, source, dest) orders all hops in one pass; each run of equal
// edges is then one row. The suffix check has bounded every node to the
// network.
func (inst *Instance) indexEdges(hops []hop) {
	n := inst.Net.Len()
	off, order := graph.GroupBy(len(hops), n, func(i int) int32 { return int32(hops[i].e.From) })
	for u := 0; u < n; u++ {
		slices.SortFunc(order[off[u]:off[u+1]], func(a, b int32) int {
			x, y := &hops[a], &hops[b]
			if c := cmp.Compare(x.e.To, y.e.To); c != 0 {
				return c
			}
			if c := cmp.Compare(x.pr.Source, y.pr.Source); c != 0 {
				return c
			}
			return cmp.Compare(x.pr.Dest, y.pr.Dest)
		})
	}
	edges := 0
	for k, h := range order {
		if k == 0 || hops[h].e != hops[order[k-1]].e {
			edges++
		}
	}
	inst.EdgeList = make([]routing.Edge, 0, edges)
	inst.pairOff = make([]int32, 0, edges+1)
	inst.pairs = make([]Pair, len(order))
	for k, h := range order {
		if k == 0 || hops[h].e != hops[order[k-1]].e {
			inst.EdgeList = append(inst.EdgeList, hops[h].e)
			inst.pairOff = append(inst.pairOff, int32(k))
		}
		inst.pairs[k] = hops[h].pr
	}
	inst.pairOff = append(inst.pairOff, int32(len(order)))
}

// Pairs returns the pairs crossing EdgeList[i], sorted by (Source, Dest).
// The slice belongs to the instance and must not be modified.
func (inst *Instance) Pairs(i int) []Pair {
	lo, hi := inst.pairOff[i], inst.pairOff[i+1]
	return inst.pairs[lo:hi:hi]
}

// EdgeIndex returns the position of e in EdgeList, or -1 if no pair
// crosses e.
func (inst *Instance) EdgeIndex(e routing.Edge) int {
	i, ok := slices.BinarySearchFunc(inst.EdgeList, e, routing.CompareEdges)
	if !ok {
		return -1
	}
	return i
}

// EdgePairs returns the pairs crossing e, sorted by (Source, Dest), or nil
// if none does.
func (inst *Instance) EdgePairs(e routing.Edge) []Pair {
	if i := inst.EdgeIndex(e); i >= 0 {
		return inst.Pairs(i)
	}
	return nil
}

// EdgeSources returns the distinct sources S_e crossing e, ascending.
// The pairs are sorted by (Source, Dest), so this is an adjacent dedup.
func (inst *Instance) EdgeSources(e routing.Edge) []graph.NodeID {
	var out []graph.NodeID
	for _, p := range inst.EdgePairs(e) {
		if n := len(out); n == 0 || out[n-1] != p.Source {
			out = append(out, p.Source)
		}
	}
	return out
}

// EdgeDests returns the distinct destinations D_e crossing e, ascending.
func (inst *Instance) EdgeDests(e routing.Edge) []graph.NodeID {
	pairs := inst.EdgePairs(e)
	out := make([]graph.NodeID, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p.Dest)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// MulticastSize returns the number of nodes in source s's multicast
// structure (|T_s| in Theorem 3): every node on some path from s.
func (inst *Instance) MulticastSize(s graph.NodeID) int {
	nodes := make(map[graph.NodeID]bool)
	for pr, path := range inst.Paths {
		if pr.Source != s {
			continue
		}
		for _, n := range path {
			nodes[n] = true
		}
	}
	return len(nodes)
}

// AggTreeSize returns the number of nodes in destination d's aggregation
// tree (|A_d| in Theorem 3): every node on some path toward d.
func (inst *Instance) AggTreeSize(d graph.NodeID) int {
	nodes := make(map[graph.NodeID]bool)
	for pr, path := range inst.Paths {
		if pr.Dest != d {
			continue
		}
		for _, n := range path {
			nodes[n] = true
		}
	}
	return len(nodes)
}

// Sources returns every node acting as a source, ascending.
func (inst *Instance) Sources() []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for pr := range inst.Paths {
		if !seen[pr.Source] {
			seen[pr.Source] = true
			out = append(out, pr.Source)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dests returns every destination, ascending.
func (inst *Instance) Dests() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(inst.SpecByDest))
	for d := range inst.SpecByDest {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

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
// pair rows and end rows here, a plan's cover rows) is aligned with it,
// and EdgeIndex maps an edge to its position.
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
	// The distinct sources crossing EdgeList[i] are
	// ends[endOff[2i]:endOff[2i+1]] and its distinct destinations
	// ends[endOff[2i+1]:endOff[2i+2]], each ascending: the two vertex sets
	// of the edge's cover problem, and the layout of every plan's cover.
	endOff []int32
	ends   []graph.NodeID
}

// hop is one (edge, pair) incidence: the path of pr crosses e.
type hop struct {
	e  routing.Edge
	pr Pair
}

// minParallelPairs is the smallest workload NewInstance routes on more
// than one goroutine. Below it, starting goroutines and forking the
// router's walk costs more than routing the pairs: on a 2-vCPU VM, 120
// pairs over 45 nodes (a fault scenario's size) routed ~20 % slower on
// two goroutines than on one, and the two broke even near 300 pairs.
const minParallelPairs = 256

// routedSpec is the routing of one spec's pairs: their paths in source
// order, or the first routing error, plus the first suffix violation.
type routedSpec struct {
	paths     [][]graph.NodeID
	err       error
	suffixErr error
}

// NewInstance resolves routes for every pair of the workload and verifies
// the router's per-destination suffix property. Each destination's pairs
// are one routing job; a router that forks (routing.Forker) routes the
// jobs on up to GOMAXPROCS goroutines, one fork each, and the result is
// the same as routing them in spec order. The first routing or
// out-of-range error in (spec, source) order is reported, and otherwise
// the first suffix violation in spec order. Specs must have distinct
// destinations and non-empty source sets.
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

	routers := []routing.Router{router}
	if npairs >= minParallelPairs {
		for len(routers) < workersFor(len(inst.Specs)) {
			f := routing.Fork(router)
			if f == nil {
				break
			}
			routers = append(routers, f)
		}
	}
	checkers := make([]*routing.SuffixChecker, len(routers))
	for w := range checkers {
		checkers[w] = routing.NewSuffixChecker(net.Len())
	}
	jobs := make([]routedSpec, len(inst.Specs))
	forEach(len(jobs), len(routers), func(w, i int) {
		jobs[i] = routeSpec(net, routers[w], checkers[w], inst.Specs[i].Dest, sources[i])
	})
	for _, job := range jobs {
		if job.err != nil {
			return nil, job.err
		}
	}
	for _, job := range jobs {
		if job.suffixErr != nil {
			return nil, fmt.Errorf("plan: router %q unusable: %w", router.Name(), job.suffixErr)
		}
	}

	inst.Paths = make(map[Pair][]graph.NodeID, npairs)
	nhops := 0
	for _, job := range jobs {
		for _, path := range job.paths {
			nhops += len(path) - 1
		}
	}
	hops := make([]hop, 0, nhops)
	for i, job := range jobs {
		for k, path := range job.paths {
			pr := Pair{Source: sources[i][k], Dest: inst.Specs[i].Dest}
			inst.Paths[pr] = path
			for j := 0; j+1 < len(path); j++ {
				hops = append(hops, hop{e: routing.Edge{From: path[j], To: path[j+1]}, pr: pr})
			}
		}
	}
	inst.indexEdges(hops)
	return inst, nil
}

// routeSpec routes the pairs of destination d, one per source, in order.
// It stops at the first routing or out-of-range error; after the first
// suffix violation it keeps routing, since a later routing error
// outranks it, but checks no further paths.
func routeSpec(net *graph.Undirected, router routing.Router, suffix *routing.SuffixChecker, d graph.NodeID, sources []graph.NodeID) routedSpec {
	out := routedSpec{paths: make([][]graph.NodeID, 0, len(sources))}
	suffix.Begin(d)
	for _, s := range sources {
		if int(s) < 0 || int(s) >= net.Len() {
			out.err = fmt.Errorf("plan: source %d out of range", s)
			return out
		}
		path, err := router.Path(s, d)
		if err != nil {
			out.err = fmt.Errorf("plan: routing pair %d→%d: %w", s, d, err)
			return out
		}
		out.paths = append(out.paths, path)
		if out.suffixErr == nil {
			out.suffixErr = suffix.Add(path)
		}
	}
	return out
}

// indexEdges builds EdgeList, the pair rows and the end rows from the
// routed hops. A counting sort by tail node followed by a sort of each
// tail's few hops by (head, source, dest) orders all hops in one pass;
// each run of equal edges is then one row. The suffix check has bounded
// every node to the network.
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

	// A row's sources dedup adjacently (the row is sorted by source); its
	// destinations are sorted and compacted in place.
	inst.endOff = make([]int32, 1, 2*edges+1)
	inst.ends = make([]graph.NodeID, 0, len(inst.pairs))
	for i := range inst.EdgeList {
		row := inst.Pairs(i)
		start := len(inst.ends)
		for _, pr := range row {
			if len(inst.ends) == start || inst.ends[len(inst.ends)-1] != pr.Source {
				inst.ends = append(inst.ends, pr.Source)
			}
		}
		inst.endOff = append(inst.endOff, int32(len(inst.ends)))
		start = len(inst.ends)
		for _, pr := range row {
			inst.ends = append(inst.ends, pr.Dest)
		}
		slices.Sort(inst.ends[start:])
		inst.ends = inst.ends[:start+len(slices.Compact(inst.ends[start:]))]
		inst.endOff = append(inst.endOff, int32(len(inst.ends)))
	}
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

// Ends returns the distinct sources and the distinct destinations
// crossing EdgeList[i], each ascending: the two vertex sets of the edge's
// cover problem (Section 2.2). The slices belong to the instance and must
// not be modified.
func (inst *Instance) Ends(i int) (sources, dests []graph.NodeID) {
	a, b, c := inst.endOff[2*i], inst.endOff[2*i+1], inst.endOff[2*i+2]
	return inst.ends[a:b:b], inst.ends[b:c:c]
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

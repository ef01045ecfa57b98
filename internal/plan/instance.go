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
// Pairs are numbered spec by spec in Specs order, each spec's sources
// ascending, and every per-pair table (Paths, the source, parameter and
// hop rows) is indexed by that number. EdgeList is the planner's one edge
// index: every per-edge table (the pair rows and end rows here, a plan's
// cover rows) is aligned with it, and EdgeIndex maps an edge to its
// position.
type Instance struct {
	Net    *graph.Undirected
	Router routing.Router
	Specs  []agg.Spec

	// SpecByDest indexes Specs by destination (one function per node, as in
	// the paper).
	SpecByDest map[graph.NodeID]agg.Spec
	// Paths holds the canonical route of every pair, endpoints inclusive,
	// indexed by pair number. The routes of one spec are rows of one
	// backing array. Route looks a route up by pair.
	Paths [][]graph.NodeID
	// EdgeList holds every edge with at least one pair, sorted by
	// (From, To).
	EdgeList []routing.Edge

	// The pairs of Specs[i] are numbers specOff[i] to specOff[i+1]-1, and
	// specOf[d] is the index in Specs of destination d's spec, or -1.
	specOff []int32
	specOf  []int32
	// Pair k's source is pairSrc[k] and its pre-aggregation parameter
	// (agg.ParamOf) pairParam[k]; hop j of its route crosses
	// EdgeList[hopEdge[hopOff[k]+j]]. paramErr[i] is the first ParamOf
	// error among Specs[i]'s sources, left for the executor to report.
	pairSrc   []graph.NodeID
	pairParam []float64
	paramErr  []error
	hopOff    []int32
	hopEdge   []int32

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

// routedSpec is the outcome of routing one spec's pairs: the first
// routing or out-of-range error, and the first suffix violation.
type routedSpec struct {
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
		specOff:    make([]int32, len(specs)+1),
		specOf:     make([]int32, net.Len()),
	}
	for i := range inst.specOf {
		inst.specOf[i] = -1
	}
	sources := make([][]graph.NodeID, len(inst.Specs))
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
		inst.specOf[sp.Dest] = int32(i)
		sources[i] = sp.Func.Sources()
		inst.specOff[i+1] = inst.specOff[i] + int32(len(sources[i]))
	}
	npairs := int(inst.specOff[len(specs)])
	inst.Paths = make([][]graph.NodeID, npairs)
	inst.pairSrc = make([]graph.NodeID, npairs)
	inst.pairParam = make([]float64, npairs)
	inst.paramErr = make([]error, len(specs))

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
	bufs := make([][]graph.NodeID, len(routers))
	for w := range checkers {
		checkers[w] = routing.NewSuffixChecker(net.Len())
	}
	jobs := make([]routedSpec, len(inst.Specs))
	forEach(len(jobs), len(routers), func(w, i int) {
		jobs[i] = inst.routeSpec(routers[w], checkers[w], &bufs[w], i, sources[i])
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

	inst.hopOff = make([]int32, npairs+1)
	for k, path := range inst.Paths {
		inst.hopOff[k+1] = inst.hopOff[k] + int32(len(path)-1)
	}
	hops := make([]hop, 0, inst.hopOff[npairs])
	for i, sp := range inst.Specs {
		for k := inst.specOff[i]; k < inst.specOff[i+1]; k++ {
			pr, path := Pair{Source: inst.pairSrc[k], Dest: sp.Dest}, inst.Paths[k]
			for j := 0; j+1 < len(path); j++ {
				hops = append(hops, hop{e: routing.Edge{From: path[j], To: path[j+1]}, pr: pr})
			}
		}
	}
	inst.indexEdges(hops)
	return inst, nil
}

// routeSpec routes the pairs of Specs[i], one per source in order, into
// the pair rows. It appends every route to the worker's buffer *buf, then
// copies the spec's routes into one array of their exact size and points
// each of the spec's Paths rows into it. It stops at the first routing or
// out-of-range error; after the first suffix violation it keeps routing,
// since a later routing error outranks it, but checks no further paths.
func (inst *Instance) routeSpec(router routing.Router, suffix *routing.SuffixChecker, buf *[]graph.NodeID, i int, sources []graph.NodeID) routedSpec {
	var out routedSpec
	d, fn := inst.Specs[i].Dest, inst.Specs[i].Func
	rows := inst.Paths[inst.specOff[i]:inst.specOff[i+1]]
	params := inst.pairParam[inst.specOff[i]:inst.specOff[i+1]]
	copy(inst.pairSrc[inst.specOff[i]:], sources)
	routes := (*buf)[:0]
	suffix.Begin(d)
	for k, s := range sources {
		if int(s) < 0 || int(s) >= inst.Net.Len() {
			out.err = fmt.Errorf("plan: source %d out of range", s)
			break
		}
		start := len(routes)
		var err error
		if routes, err = router.AppendPath(routes, s, d); err != nil {
			out.err = fmt.Errorf("plan: routing pair %d→%d: %w", s, d, err)
			break
		}
		if params[k], err = agg.ParamOf(fn, s); err != nil && inst.paramErr[i] == nil {
			inst.paramErr[i] = err
		}
		// Only the row's length is kept: the buffer may move as it grows.
		rows[k] = routes[start:]
		if out.suffixErr == nil {
			out.suffixErr = suffix.Add(rows[k])
		}
	}
	*buf = routes
	if out.err != nil {
		return out
	}
	routes = slices.Clone(routes)
	for k, row := range rows {
		n := len(row)
		rows[k], routes = routes[:n:n], routes[n:]
	}
	return out
}

// indexEdges builds EdgeList, the pair rows, the end rows and the hop
// rows from the routed hops, which come in pair order. A counting sort by
// tail node followed by a sort of each tail's few hops by (head, source,
// dest) orders all hops in one pass; each run of equal edges is then one
// row. The suffix check has bounded every node to the network.
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
	inst.hopEdge = make([]int32, len(order))
	for k, h := range order {
		if k == 0 || hops[h].e != hops[order[k-1]].e {
			inst.EdgeList = append(inst.EdgeList, hops[h].e)
			inst.pairOff = append(inst.pairOff, int32(k))
		}
		inst.pairs[k] = hops[h].pr
		inst.hopEdge[h] = int32(len(inst.EdgeList) - 1)
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

// SpecIndex returns the index in Specs of destination d's spec, or -1
// if d is not a destination.
func (inst *Instance) SpecIndex(d graph.NodeID) int {
	if int(d) < 0 || int(d) >= len(inst.specOf) {
		return -1
	}
	return int(inst.specOf[d])
}

// SpecPairs returns the pair numbers of Specs[i]: lo to hi-1, one per
// source in ascending order.
func (inst *Instance) SpecPairs(i int) (lo, hi int) {
	return int(inst.specOff[i]), int(inst.specOff[i+1])
}

// SpecSources returns the sources of Specs[i] ascending, aligned with its
// pairs: its source row. The slice belongs to the instance and must not
// be modified.
func (inst *Instance) SpecSources(i int) []graph.NodeID {
	lo, hi := inst.specOff[i], inst.specOff[i+1]
	return inst.pairSrc[lo:hi:hi]
}

// SpecParams returns the pre-aggregation parameter (agg.ParamOf) of each
// source of Specs[i], aligned with SpecSources(i): its parameter row. The
// error is ParamOf's for the first source the function cannot
// pre-aggregate (a Func whose HasSource disagrees with its Sources); the
// planner does not need the parameters, so only executors report it. The
// slice belongs to the instance and must not be modified.
func (inst *Instance) SpecParams(i int) ([]float64, error) {
	lo, hi := inst.specOff[i], inst.specOff[i+1]
	return inst.pairParam[lo:hi:hi], inst.paramErr[i]
}

// HopEdges returns, for each hop of pair k's route in order, the index in
// EdgeList of the edge it crosses. The slice belongs to the instance and
// must not be modified.
func (inst *Instance) HopEdges(k int) []int32 {
	lo, hi := inst.hopOff[k], inst.hopOff[k+1]
	return inst.hopEdge[lo:hi:hi]
}

// Route returns the canonical route of pr, endpoints inclusive, or nil if
// pr is not a pair of the workload: the destination's spec, then a binary
// search of its sources. The slice belongs to the instance and must not
// be modified.
func (inst *Instance) Route(pr Pair) []graph.NodeID {
	i := inst.SpecIndex(pr.Dest)
	if i < 0 {
		return nil
	}
	r, ok := slices.BinarySearch(inst.SpecSources(i), pr.Source)
	if !ok {
		return nil
	}
	return inst.Paths[int(inst.specOff[i])+r]
}

// MulticastSize returns the number of nodes in source s's multicast
// structure (|T_s| in Theorem 3): every node on some path from s.
func (inst *Instance) MulticastSize(s graph.NodeID) int {
	var nodes []graph.NodeID
	for _, sp := range inst.Specs {
		nodes = append(nodes, inst.Route(Pair{Source: s, Dest: sp.Dest})...)
	}
	return countDistinct(nodes)
}

// AggTreeSize returns the number of nodes in destination d's aggregation
// tree (|A_d| in Theorem 3): every node on some path toward d. It reads
// only d's rows.
func (inst *Instance) AggTreeSize(d graph.NodeID) int {
	i := inst.SpecIndex(d)
	if i < 0 {
		return 0
	}
	lo, hi := inst.SpecPairs(i)
	var nodes []graph.NodeID
	for _, path := range inst.Paths[lo:hi] {
		nodes = append(nodes, path...)
	}
	return countDistinct(nodes)
}

// countDistinct returns the number of distinct nodes in nodes, which it
// reorders.
func countDistinct(nodes []graph.NodeID) int {
	slices.Sort(nodes)
	return len(slices.Compact(nodes))
}

// Sources returns every node acting as a source, ascending.
func (inst *Instance) Sources() []graph.NodeID {
	isSource := make([]bool, inst.Net.Len())
	count := 0
	for _, s := range inst.pairSrc {
		if !isSource[s] {
			isSource[s] = true
			count++
		}
	}
	out := make([]graph.NodeID, 0, count)
	for s, ok := range isSource {
		if ok {
			out = append(out, graph.NodeID(s))
		}
	}
	return out
}

// Dests returns every destination, ascending.
func (inst *Instance) Dests() []graph.NodeID {
	out := make([]graph.NodeID, len(inst.Specs))
	for i, sp := range inst.Specs {
		out[i] = sp.Dest
	}
	slices.Sort(out)
	return out
}

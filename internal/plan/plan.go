package plan

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
	"m2m/internal/vcover"
)

// Method names a planning strategy (the paper's four algorithms minus
// flood, which needs no plan).
type Method string

// Planning strategies.
const (
	MethodOptimal     Method = "optimal"     // balanced multicast + aggregation (the paper's contribution)
	MethodMulticast   Method = "multicast"   // raw values all the way; aggregate only at destinations
	MethodAggregation Method = "aggregation" // aggregate at the earliest opportunity
)

// Plan is a global many-to-many aggregation plan: the vertex cover of
// every workload edge's single-edge problem.
type Plan struct {
	Inst   *Instance
	Method Method
	// Prices are the per-node energy prices the plan was solved under (nil
	// or missing entries mean price 1). A node's price multiplies its unit
	// weight in every edge's vertex-cover problem, so the cover prefers
	// putting transmission burden on cheap (energy-rich) nodes — the
	// energy-weighted tiebreak of the evacuation replan.
	Prices map[graph.NodeID]int64

	// cover is aligned with the instance's end rows: cover[k] is set when
	// the k-th end is in its edge's cover, a source sending its value raw
	// or a destination's partial record crossing the edge.
	cover []bool
}

// NewPlan returns a plan of inst in which no edge sends anything yet, for
// planners that fill the cover rows themselves (Row).
func NewPlan(inst *Instance, method Method) *Plan {
	return &Plan{Inst: inst, Method: method, cover: make([]bool, len(inst.ends))}
}

// Row is the transmit decision of one edge: the vertex cover of its
// bipartite problem, as flags aligned with the edge's distinct sources
// and destinations (Instance.Ends).
type Row struct {
	Sources []graph.NodeID // the distinct sources crossing the edge, ascending
	Raw     []bool         // Raw[k]: Sources[k]'s value crosses raw
	Dests   []graph.NodeID // the distinct destinations crossing the edge, ascending
	Agg     []bool         // Agg[k]: Dests[k]'s partial record crosses
}

// Row returns the decision on Inst.EdgeList[i]. Its flags are the plan's
// own storage: writing them changes the plan.
func (p *Plan) Row(i int) Row {
	sources, dests := p.Inst.Ends(i)
	flags, k := p.edgeCover(i), len(sources)
	return Row{Sources: sources, Raw: flags[:k:k], Dests: dests, Agg: flags[k:]}
}

// edgeCover returns the cover flags of Inst.EdgeList[i], sources then
// destinations.
func (p *Plan) edgeCover(i int) []bool {
	a, c := p.Inst.endOff[2*i], p.Inst.endOff[2*i+2]
	return p.cover[a:c:c]
}

// SendsRecord reports whether destination d's partial record crosses e.
func (p *Plan) SendsRecord(e routing.Edge, d graph.NodeID) bool {
	i := p.Inst.EdgeIndex(e)
	if i < 0 {
		return false
	}
	r := p.Row(i)
	k, ok := slices.BinarySearch(r.Dests, d)
	return ok && r.Agg[k]
}

// priceOf is the effective vertex-cover price of node n: entries below 1
// (and absent or nil maps) price at 1, the unweighted problem.
func priceOf(prices map[graph.NodeID]int64, n graph.NodeID) int64 {
	if p, ok := prices[n]; ok && p > 1 {
		return p
	}
	return 1
}

// Optimize computes the paper's optimal plan: every edge is solved as an
// independent weighted bipartite vertex cover with the canonical global
// tiebreak. Theorem 1 guarantees the per-edge optima are mutually
// consistent when the router satisfies the paper's routing restrictions
// (see routing.Router), as every router in this repository does. A router
// that breaks them can make an edge send raw a value that was aggregated
// upstream; Optimize then returns an error naming the router, the edge
// and the source.
func Optimize(inst *Instance) (*Plan, error) {
	return OptimizeWithPrices(inst, nil)
}

// OptimizeWithPrices is Optimize with per-node energy prices scaling the
// cover weights (see Plan.Prices). With a nil map it is exactly Optimize.
func OptimizeWithPrices(inst *Instance, prices map[graph.NodeID]int64) (*Plan, error) {
	p := NewPlan(inst, MethodOptimal)
	p.Prices = prices
	// The single-edge problems are independent by construction (that is
	// the point of Theorem 1), so solve them in parallel; each writes only
	// its own row, so results are identical to a sequential pass
	// regardless of scheduling.
	errs := make([]error, len(inst.EdgeList))
	scs := make([]*edgeScratch, workersFor(len(inst.EdgeList)))
	for w := range scs {
		scs[w] = getEdgeScratch()
	}
	forEach(len(inst.EdgeList), len(scs), func(w, i int) {
		errs[i] = solveEdge(inst, i, prices, scs[w], p.Row(i))
	})
	for _, sc := range scs {
		putEdgeScratch(sc)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := p.checkTheorem1(); err != nil {
		return nil, err
	}
	if err := p.validateCover(); err != nil {
		return nil, fmt.Errorf("plan: internal error: %w", err)
	}
	return p, nil
}

// workersFor returns how many goroutines share n independent jobs: one
// per available core, and never more than there are jobs.
func workersFor(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// forEach calls do(w, i) for every i in [0, n) on the given number of
// goroutines, the calling one included, handing indices out in ascending
// order. w (0 ≤ w < workers) names the goroutine, so callers keep
// per-goroutine state (scratch, a router fork) in slices indexed by it.
func forEach(n, workers int, do func(w, i int)) {
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			do(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}

// checkTheorem1 rejects a plan whose independently solved edges do not
// fit together: an edge that sends a source raw although the raw value was
// aggregated on every route into the edge's tail. Under the routing
// restrictions of Theorem 1 this never happens, so a violation is the
// router's fault.
func (p *Plan) checkTheorem1() error {
	vs := p.rawViolations()
	if len(vs) == 0 {
		return nil
	}
	e := p.Inst.EdgeList[vs[0].edge]
	return fmt.Errorf("plan: router %q breaks Theorem 1's routing restrictions: edge %v sends source %d raw, but its raw value was aggregated before reaching %d (and %d more)",
		p.Inst.Router.Name(), e, vs[0].source, e.From, len(vs)-1)
}

// Multicast returns the pure-multicast baseline plan: every value crosses
// every edge raw and is aggregated only at its destination.
func Multicast(inst *Instance) *Plan {
	p := NewPlan(inst, MethodMulticast)
	for i := range inst.EdgeList {
		raw := p.Row(i).Raw
		for k := range raw {
			raw[k] = true
		}
	}
	return p
}

// AggregateASAP returns the pure in-network aggregation baseline: every
// value is folded into per-destination partial records at the earliest
// opportunity (already at the source), as in Figure 1(A)'s bad case.
func AggregateASAP(inst *Instance) *Plan {
	p := NewPlan(inst, MethodAggregation)
	for i := range inst.EdgeList {
		rec := p.Row(i).Agg
		for k := range rec {
			rec[k] = true
		}
	}
	return p
}

// solveEdge reduces edge e = inst.EdgeList[ei] to weighted bipartite
// vertex cover and solves it exactly into row. U holds the sources S_e
// (weight: raw unit bytes), V the destinations D_e (weight: that
// destination's record unit bytes), with the canonical tiebreak keys
// 2·node (source role) and 2·node+1 (destination role) shared by every
// edge in the network. Non-nil prices multiply each endpoint's weight by
// its node's energy price, biasing the cover toward keeping traffic off
// expensive (energy-poor) nodes. sc carries the pooled per-worker
// problem. The pair row is sorted by (Source, Dest), so a pair's source
// index advances with the row and duplicate cover edges are adjacent.
func solveEdge(inst *Instance, ei int, prices map[graph.NodeID]int64, sc *edgeScratch, row Row) error {
	prob := &sc.prob
	prob.U = prob.U[:0]
	prob.V = prob.V[:0]
	prob.Edges = prob.Edges[:0]
	for _, s := range row.Sources {
		prob.U = append(prob.U, vcover.Vertex{Key: int(s) * 2, Weight: int64(agg.RawUnitBytes) * priceOf(prices, s)})
	}
	for _, d := range row.Dests {
		prob.V = append(prob.V, vcover.Vertex{Key: int(d)*2 + 1, Weight: int64(agg.UnitBytes(inst.SpecByDest[d].Func)) * priceOf(prices, d)})
	}
	i, last := -1, [2]int{-1, -1}
	for _, pr := range inst.Pairs(ei) {
		if i < 0 || row.Sources[i] != pr.Source {
			i++
		}
		j, _ := slices.BinarySearch(row.Dests, pr.Dest)
		if e := [2]int{i, j}; e != last {
			prob.Edges = append(prob.Edges, e)
			last = e
		}
	}
	if err := vcover.Solve(prob, &vcover.Solution{InU: row.Raw, InV: row.Agg}); err != nil {
		return fmt.Errorf("plan: edge %v: %w", inst.EdgeList[ei], err)
	}
	return nil
}

// violation is a raw transmission of source on EdgeList[edge] whose value
// cannot have reached the edge's tail.
type violation struct {
	edge   int
	source graph.NodeID
}

// rawHop is one raw decision: source travels raw on EdgeList[edge].
type rawHop struct {
	source graph.NodeID
	edge   int
}

// rawViolations finds every edge that transmits a source raw although the
// raw value cannot have reached the edge's tail (it was aggregated on every
// upstream route). Availability is a fixpoint over the source's multicast
// structure: the value is available at the source itself and at the head
// of every edge that both transmits it raw and has it available at its
// tail. Violations come by ascending source, each source's in edge order.
func (p *Plan) rawViolations() []violation {
	inst := p.Inst
	n := inst.Net.Len()
	var raws []rawHop
	for i := range inst.EdgeList {
		// The edge's sources are the first part of its end row.
		for k := inst.endOff[2*i]; k < inst.endOff[2*i+1]; k++ {
			if p.cover[k] {
				raws = append(raws, rawHop{source: inst.ends[k], edge: i})
			}
		}
	}
	if len(raws) == 0 {
		return nil
	}
	off, bySource := graph.GroupBy(len(raws), n, func(k int) int32 { return int32(raws[k].source) })
	var out []violation
	avail := make([]int32, n) // avail[v] == s+1: source s's value reaches v
	for s := 0; s < n; s++ {
		own := bySource[off[s]:off[s+1]]
		if len(own) == 0 {
			continue
		}
		mark := int32(s + 1)
		avail[s] = mark
		for changed := true; changed; {
			changed = false
			for _, k := range own {
				e := inst.EdgeList[raws[k].edge]
				if avail[e.From] == mark && avail[e.To] != mark {
					avail[e.To] = mark
					changed = true
				}
			}
		}
		for _, k := range own {
			if i := raws[k].edge; avail[inst.EdgeList[i].From] != mark {
				out = append(out, violation{edge: i, source: graph.NodeID(s)})
			}
		}
	}
	return out
}

// Validate checks that the plan is executable: every pair is covered on
// every edge of its path and raw transmissions are available at their
// tails. Optimize and Reoptimize make both checks themselves; Validate is
// for plans assembled elsewhere (baselines, the distributed optimizer,
// benchmarks).
func (p *Plan) Validate() error {
	if err := p.validateCover(); err != nil {
		return err
	}
	if vs := p.rawViolations(); len(vs) > 0 {
		return fmt.Errorf("plan: raw value %d unavailable at tail of %v (and %d more)",
			vs[0].source, p.Inst.EdgeList[vs[0].edge], len(vs)-1)
	}
	return nil
}

// validateCover is Validate without the availability check: every pair
// is covered on every edge it crosses, by its source sending raw or its
// destination's record.
func (p *Plan) validateCover() error {
	inst := p.Inst
	for i, e := range inst.EdgeList {
		sources, dests := inst.Ends(i)
		flags := p.edgeCover(i) // sources' flags, then destinations'
		k := -1
		for _, pr := range inst.Pairs(i) {
			if k < 0 || sources[k] != pr.Source {
				k++
			}
			if flags[k] {
				continue
			}
			if j, _ := slices.BinarySearch(dests, pr.Dest); !flags[len(sources)+j] {
				return fmt.Errorf("plan: pair %d→%d uncovered on edge %v", pr.Source, pr.Dest, e)
			}
		}
	}
	return nil
}

// UnitKind distinguishes the two message unit types of Section 3.
type UnitKind int

// Message unit kinds.
const (
	UnitRaw UnitKind = iota // raw value tagged with its source
	UnitAgg                 // partial aggregate record tagged with its destination
)

// Unit is one message unit crossing one edge.
type Unit struct {
	Edge routing.Edge
	Kind UnitKind
	Node graph.NodeID // source ID for UnitRaw, destination ID for UnitAgg
}

// Bytes returns the unit's on-wire size under the instance's workload.
func (p *Plan) Bytes(u Unit) int {
	if u.Kind == UnitRaw {
		return agg.RawUnitBytes
	}
	return agg.UnitBytes(p.Inst.SpecByDest[u.Node].Func)
}

// EdgeUnits lists the message units crossing e, raw units first, each
// group ascending by node, matching the deterministic order used
// throughout the executor.
func (p *Plan) EdgeUnits(e routing.Edge) []Unit {
	i := p.Inst.EdgeIndex(e)
	if i < 0 {
		return nil
	}
	return p.appendUnits(nil, i)
}

// Units lists every message unit of the plan in edge order, each edge's
// units as EdgeUnits orders them.
func (p *Plan) Units() []Unit {
	total := 0
	for _, c := range p.cover {
		if c {
			total++
		}
	}
	out := make([]Unit, 0, total)
	for i := range p.Inst.EdgeList {
		out = p.appendUnits(out, i)
	}
	return out
}

// appendUnits appends the units of Inst.EdgeList[i] to out. A row lists
// its sources and destinations ascending, so this is a scan.
func (p *Plan) appendUnits(out []Unit, i int) []Unit {
	e, r := p.Inst.EdgeList[i], p.Row(i)
	for k, s := range r.Sources {
		if r.Raw[k] {
			out = append(out, Unit{Edge: e, Kind: UnitRaw, Node: s})
		}
	}
	for k, d := range r.Dests {
		if r.Agg[k] {
			out = append(out, Unit{Edge: e, Kind: UnitAgg, Node: d})
		}
	}
	return out
}

// BodyBytes returns the total unit payload crossing e.
func (p *Plan) BodyBytes(e routing.Edge) int {
	total := 0
	for _, u := range p.EdgeUnits(e) {
		total += p.Bytes(u)
	}
	return total
}

// TotalBodyBytes sums unit payloads over all edges: the static cost the
// per-edge optimization minimizes (excluding per-message headers, which
// the simulator adds after merging).
func (p *Plan) TotalBodyBytes() int {
	total := 0
	for _, e := range p.Inst.EdgeList {
		total += p.BodyBytes(e)
	}
	return total
}

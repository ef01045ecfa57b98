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

// EdgeSolution is the transmit decision for one directed edge: which
// sources travel raw and which destinations travel as partial aggregate
// records (the vertex cover of the edge's bipartite problem). The planner
// never changes a solution once built, so plans share unchanged ones by
// reference (Reoptimize).
type EdgeSolution struct {
	Raw map[graph.NodeID]bool
	Agg map[graph.NodeID]bool
}

// NewEdgeSolution returns an empty solution with initialized sets, for
// alternative planners (e.g. the distributed optimizer) that assemble
// Plans themselves.
func NewEdgeSolution() *EdgeSolution {
	return &EdgeSolution{
		Raw: make(map[graph.NodeID]bool),
		Agg: make(map[graph.NodeID]bool),
	}
}

// Plan is a global many-to-many aggregation plan: one EdgeSolution per
// workload edge.
type Plan struct {
	Inst   *Instance
	Method Method
	// Sol holds the solution of every edge, aligned with Inst.EdgeList:
	// Sol[i] is the solution of Inst.EdgeList[i].
	Sol []*EdgeSolution
	// Prices are the per-node energy prices the plan was solved under (nil
	// or missing entries mean price 1). A node's price multiplies its unit
	// weight in every edge's vertex-cover problem, so the cover prefers
	// putting transmission burden on cheap (energy-rich) nodes — the
	// energy-weighted tiebreak of the evacuation replan.
	Prices map[graph.NodeID]int64
}

// Solution returns the solution of edge e, or nil if no pair crosses e.
func (p *Plan) Solution(e routing.Edge) *EdgeSolution {
	if i := p.Inst.EdgeIndex(e); i >= 0 && i < len(p.Sol) {
		return p.Sol[i]
	}
	return nil
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
	p := &Plan{Inst: inst, Method: MethodOptimal, Sol: make([]*EdgeSolution, len(inst.EdgeList)), Prices: prices}
	// The single-edge problems are independent by construction (that is
	// the point of Theorem 1), so solve them in parallel; results are
	// identical to a sequential pass regardless of scheduling.
	errs := make([]error, len(inst.EdgeList))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(inst.EdgeList) {
		workers = len(inst.EdgeList)
	}
	var next int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getEdgeScratch()
			defer putEdgeScratch(sc)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(inst.EdgeList) {
					return
				}
				p.Sol[i], errs[i] = solveEdge(inst, i, prices, sc)
			}
		}()
	}
	wg.Wait()
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
	p := &Plan{Inst: inst, Method: MethodMulticast, Sol: make([]*EdgeSolution, len(inst.EdgeList))}
	for i, e := range inst.EdgeList {
		sol := NewEdgeSolution()
		for _, s := range inst.EdgeSources(e) {
			sol.Raw[s] = true
		}
		p.Sol[i] = sol
	}
	return p
}

// AggregateASAP returns the pure in-network aggregation baseline: every
// value is folded into per-destination partial records at the earliest
// opportunity (already at the source), as in Figure 1(A)'s bad case.
func AggregateASAP(inst *Instance) *Plan {
	p := &Plan{Inst: inst, Method: MethodAggregation, Sol: make([]*EdgeSolution, len(inst.EdgeList))}
	for i, e := range inst.EdgeList {
		sol := NewEdgeSolution()
		for _, d := range inst.EdgeDests(e) {
			sol.Agg[d] = true
		}
		p.Sol[i] = sol
	}
	return p
}

// solveEdge reduces edge e = inst.EdgeList[ei] to weighted bipartite
// vertex cover and solves it exactly. U holds the sources S_e (weight: raw
// unit bytes), V the
// destinations D_e (weight: that destination's record unit bytes), with the
// canonical tiebreak keys 2·node (source role) and 2·node+1 (destination
// role) shared by every edge in the network. Non-nil prices multiply each
// endpoint's weight by its node's energy price, biasing the cover toward
// keeping traffic off expensive (energy-poor) nodes. sc carries the pooled
// per-worker scratch; the problem it builds is identical to the former
// map-based construction (an edge's pairs are sorted by (Source, Dest), so
// sources dedup adjacently and duplicate cover edges are adjacent too).
func solveEdge(inst *Instance, ei int, prices map[graph.NodeID]int64, sc *edgeScratch) (*EdgeSolution, error) {
	pairs := inst.Pairs(ei)
	sc.ensure(inst.Net.Len())
	sc.sources = sc.sources[:0]
	sc.dests = sc.dests[:0]
	for _, pr := range pairs {
		if n := len(sc.sources); n == 0 || sc.sources[n-1] != pr.Source {
			sc.sources = append(sc.sources, pr.Source)
		}
		if sc.vStamp[pr.Dest] != sc.epoch {
			sc.vStamp[pr.Dest] = sc.epoch
			sc.dests = append(sc.dests, pr.Dest)
		}
	}
	slices.Sort(sc.dests)

	prob := &sc.prob
	prob.U = prob.U[:0]
	prob.V = prob.V[:0]
	prob.Edges = prob.Edges[:0]
	for i, s := range sc.sources {
		sc.uIdx[s] = int32(i)
		prob.U = append(prob.U, vcover.Vertex{Key: int(s) * 2, Weight: int64(agg.RawUnitBytes) * priceOf(prices, s)})
	}
	for j, d := range sc.dests {
		sc.vIdx[d] = int32(j)
		prob.V = append(prob.V, vcover.Vertex{Key: int(d)*2 + 1, Weight: int64(agg.UnitBytes(inst.SpecByDest[d].Func)) * priceOf(prices, d)})
	}
	lastI, lastJ := int32(-1), int32(-1)
	for _, pr := range pairs {
		i, j := sc.uIdx[pr.Source], sc.vIdx[pr.Dest]
		if i == lastI && j == lastJ {
			continue
		}
		lastI, lastJ = i, j
		prob.Edges = append(prob.Edges, [2]int{int(i), int(j)})
	}

	cover, err := vcover.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("plan: edge %v: %w", inst.EdgeList[ei], err)
	}
	nRaw, nAgg := 0, 0
	for i := range sc.sources {
		if cover.InU[i] {
			nRaw++
		}
	}
	for j := range sc.dests {
		if cover.InV[j] {
			nAgg++
		}
	}
	sol := &EdgeSolution{
		Raw: make(map[graph.NodeID]bool, nRaw),
		Agg: make(map[graph.NodeID]bool, nAgg),
	}
	for i, s := range sc.sources {
		if cover.InU[i] {
			sol.Raw[s] = true
		}
	}
	for j, d := range sc.dests {
		if cover.InV[j] {
			sol.Agg[d] = true
		}
	}
	return sol, nil
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
	// Collect the raw decisions from each edge's pairs. A Raw set naming a
	// source that does not cross its edge (only in hand-assembled plans)
	// has more entries than the pairs find, and is then taken whole.
	var raws []rawHop
	for i := range inst.EdgeList {
		sol := p.Sol[i]
		if len(sol.Raw) == 0 {
			continue
		}
		hits := 0
		pairs := inst.Pairs(i)
		for k, pr := range pairs {
			if (k == 0 || pairs[k-1].Source != pr.Source) && sol.Raw[pr.Source] {
				raws = append(raws, rawHop{source: pr.Source, edge: i})
				hits++
			}
		}
		if hits != len(sol.Raw) {
			raws = raws[:len(raws)-hits]
			for s := range sol.Raw {
				raws = append(raws, rawHop{source: s, edge: i})
			}
		}
	}
	if len(raws) == 0 {
		return nil
	}
	inNet := func(s graph.NodeID) bool { return s >= 0 && int(s) < n }
	off, bySource := graph.GroupBy(len(raws), n, func(k int) int32 {
		if s := raws[k].source; inNet(s) {
			return int32(s)
		}
		return -1
	})
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
	// A source outside the network is available nowhere, so every edge
	// carrying it raw is a violation.
	for _, r := range raws {
		if !inNet(r.source) {
			out = append(out, violation{edge: r.edge, source: r.source})
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

// validateCover is Validate without the availability check: every edge
// has a solution covering each of its pairs.
func (p *Plan) validateCover() error {
	inst := p.Inst
	for i, e := range inst.EdgeList {
		if i >= len(p.Sol) || p.Sol[i] == nil {
			return fmt.Errorf("plan: edge %v has no solution", e)
		}
		sol := p.Sol[i]
		pairs := inst.Pairs(i)
		raw := false
		for k, pr := range pairs {
			if k == 0 || pairs[k-1].Source != pr.Source {
				raw = sol.Raw[pr.Source]
			}
			if !raw && !sol.Agg[pr.Dest] {
				return fmt.Errorf("plan: pair %d→%d uncovered on edge %v", pr.Source, pr.Dest, e)
			}
		}
	}
	if len(p.Sol) != len(inst.EdgeList) {
		return fmt.Errorf("plan: %d solutions for %d edges", len(p.Sol), len(inst.EdgeList))
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
	sol := p.Solution(e)
	if sol == nil {
		return nil
	}
	units, _ := appendUnits(nil, nil, e, sol)
	return units
}

// Units lists every message unit of the plan in edge order, each edge's
// units as EdgeUnits orders them.
func (p *Plan) Units() []Unit {
	total := 0
	for _, sol := range p.Sol {
		total += len(sol.Raw) + len(sol.Agg)
	}
	out := make([]Unit, 0, total)
	var buf []graph.NodeID
	for i, e := range p.Inst.EdgeList {
		out, buf = appendUnits(out, buf, e, p.Sol[i])
	}
	return out
}

// appendUnits appends the units of e under sol to out, sorting the node
// sets in buf, which it returns for reuse.
func appendUnits(out []Unit, buf []graph.NodeID, e routing.Edge, sol *EdgeSolution) ([]Unit, []graph.NodeID) {
	buf = sortedKeys(buf, sol.Raw)
	for _, s := range buf {
		out = append(out, Unit{Edge: e, Kind: UnitRaw, Node: s})
	}
	buf = sortedKeys(buf, sol.Agg)
	for _, d := range buf {
		out = append(out, Unit{Edge: e, Kind: UnitAgg, Node: d})
	}
	return out, buf
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

// sortedKeys returns the members of m ascending, reusing buf's storage.
func sortedKeys(buf []graph.NodeID, m map[graph.NodeID]bool) []graph.NodeID {
	buf = slices.Grow(buf[:0], len(m))
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

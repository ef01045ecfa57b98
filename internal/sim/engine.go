// Package sim executes many-to-many aggregation plans over a simulated
// Mica2-class network: it materializes the plan's message units, derives
// their wait-for dependencies (acyclic per Theorem 2), merges units into
// per-edge messages (Section 3), computes every destination's aggregate
// value exactly, and accounts send/receive energy under the radio model.
// It also implements the paper's flood baseline and the temporal
// suppression + override execution mode of Section 3.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/schedule"
)

// nodeSource keys per-node availability of a source's raw value.
type nodeSource struct {
	node, source graph.NodeID
}

// Engine executes one plan. It precomputes the unit list, the wait-for
// DAG, a topological processing order, and the message layout, then
// compiles everything into a flat, index-based round program (compile.go),
// so repeated Run calls only do value propagation over dense scratch
// arrays. The compiled program is immutable after NewEngine: any number of
// rounds may execute concurrently over one Engine (RunConcurrent), each on
// its own pooled RoundState.
type Engine struct {
	Plan  *plan.Plan
	Radio radio.Model

	units    []plan.Unit
	deps     [][]int // deps[u] = units u waits for
	order    []int   // topological processing order
	provUnit []bool  // unit is the designated first provider of its raw value

	messages  [][]int // message -> unit indices (per edge)
	energyJ   float64
	bodyBytes int
	perNodeJ  map[graph.NodeID]float64

	prog      *compiled // the flat round program (compile.go)
	pool      sync.Pool // *RoundState scratch, recycled across rounds
	lossyPool sync.Pool // *lossyState scratch for the lossy/async paths

	battery  *Battery     // optional residual-energy ledger (Options.Battery)
	batRound atomic.Int64 // rounds drained on the fault-free paths

	topo     *asyncTopo // message-level DAG for the async executor
	topoOnce sync.Once  // guards the lazy build so concurrent rounds stay safe

	cont     *contention // message conflict topology for the collision model
	contOnce sync.Once   // guards its lazy build
	contErr  error

	txMode  TxMode             // transmission discipline under collisions
	txSched *schedule.Schedule // installed TDMA frame (TxTDMA)
}

// Options configures engine construction.
type Options struct {
	// MergeMessages enables combining an edge's units into single messages
	// (the paper's default). When false every unit travels alone,
	// reproducing the "straightforward, though suboptimal" scheduling of
	// Section 3.
	MergeMessages bool
	// EdgeHops maps a plan edge to the number of physical hops it spans.
	// Plans over milestone (virtual) edges set this from the contraction's
	// HopPaths; nil means every edge is a single physical hop. A message on
	// a k-hop virtual edge is relayed k times, paying k unicasts.
	EdgeHops func(routing.Edge) int
	// Broadcast prices each node's outgoing traffic as one local broadcast
	// with selective listening (the optimization of the paper's footnote
	// 1): the union of the node's outgoing units — raw values deduplicated
	// across out-edges — is sent once, and exactly the intended neighbors
	// listen. Incompatible with EdgeHops.
	Broadcast bool
	// LinkLoss maps a plan edge to its packet loss probability in [0, 1);
	// messages on lossy links pay the stop-and-wait ARQ expectation
	// 1/(1-p) transmissions. Nil means lossless links. Incompatible with
	// Broadcast (no per-link ACKs on a broadcast medium).
	LinkLoss func(routing.Edge) float64
	// Battery, when non-nil, is the residual-energy ledger every executor
	// debits. The fault-free executors drain each node's static per-round
	// share wholesale after the round; the lossy and async executors debit
	// the actual per-attempt spend and silence nodes whose batteries hit
	// zero mid-round (see RunLossy/RunAsync). The ledger may be shared
	// across engines (e.g. across a session's replans).
	Battery *Battery
}

// NewEngine prepares an executor for p. It fails if the plan's wait-for
// graph is cyclic (impossible for valid plans, per Theorem 2).
func NewEngine(p *plan.Plan, model radio.Model, opts Options) (*Engine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{Plan: p, Radio: model, battery: opts.Battery}
	e.units = p.Units()
	cx, err := e.newConstruction()
	if err != nil {
		return nil, err
	}
	if err := e.buildDeps(cx); err != nil {
		return nil, err
	}
	e.provUnit = make([]bool, len(e.units))
	for i, u := range e.units {
		e.provUnit[i] = u.Kind == plan.UnitRaw && cx.rawProv[i] == int32(i)
	}
	if !depsAcyclic(e.deps) {
		return nil, fmt.Errorf("sim: wait-for cycle among message units (Theorem 2 violated)")
	}
	if err := e.buildMessages(cx, opts.MergeMessages); err != nil {
		return nil, err
	}
	if opts.Broadcast {
		if opts.EdgeHops != nil {
			return nil, fmt.Errorf("sim: Broadcast and EdgeHops are incompatible")
		}
		if opts.LinkLoss != nil {
			return nil, fmt.Errorf("sim: Broadcast and LinkLoss are incompatible")
		}
		e.accountBroadcastEnergy()
	} else {
		if err := e.accountEnergy(cx.unitBytes, opts.EdgeHops, opts.LinkLoss); err != nil {
			return nil, err
		}
	}
	if err := e.compile(cx); err != nil {
		return nil, err
	}
	e.pool.New = func() any { return e.NewRoundState() }
	e.lossyPool.New = func() any { return e.newLossyState() }
	return e, nil
}

// depsAcyclic reports whether the wait-for relation deps (deps[u] = the
// units u waits for) is acyclic: an iterative three-colour depth-first
// search, linear in units plus arcs.
func depsAcyclic(deps [][]int) bool {
	const (
		white = iota // unvisited
		grey         // on the search path
		black        // finished: no cycle through it
	)
	colour := make([]uint8, len(deps))
	type frame struct{ u, next int }
	var path []frame
	for root := range deps {
		if colour[root] != white {
			continue
		}
		colour[root] = grey
		path = append(path[:0], frame{u: root})
		for len(path) > 0 {
			f := &path[len(path)-1]
			if f.next == len(deps[f.u]) {
				colour[f.u] = black
				path = path[:len(path)-1]
				continue
			}
			v := deps[f.u][f.next]
			f.next++
			switch colour[v] {
			case grey:
				return false
			case white:
				colour[v] = grey
				path = append(path, frame{u: v})
			}
		}
	}
	return true
}

// Provider sentinels of construction.rawUp and rawProv and of pairInput.prov.
const (
	provLocal   = -1 // the value originates at the node itself
	provMissing = -2 // the value never reaches the node
)

// pairInput is one pair's contribution to a record assembly at node n, in
// the reference executor's merge order (ascending source).
type pairInput struct {
	source graph.NodeID
	rec    int32   // the upstream record unit on the pair's in-edge, or -1 if the pair arrives raw
	prov   int32   // raw only: the provider unit of source's value at n, provLocal or provMissing
	param  float64 // raw only: the source's pre-aggregation parameter (agg.ParamOf)
}

// destInfo is what the compiled program reads of one destination's
// function, resolved once per spec.
type destInfo struct {
	fn        agg.Func
	sources   []graph.NodeID // fn.Sources(), ascending
	alg       agg.Kind       // kernelKind(fn)
	recLen    int32          // agg.RecordLen(fn)
	unitBytes int32          // on-wire bytes of one of its record units
}

// construction is the dense, construction-only view of a plan that
// buildDeps, buildMessages and compile share. Units come in EdgeList
// order, raw units first, each group ascending by node, so edge ei's units
// are the range [edgeOff[ei], edgeOff[ei+1]).
type construction struct {
	unitEdge []int32 // unit -> EdgeList index
	edgeOff  []int32 // EdgeList index -> first unit; len(EdgeList)+1 entries

	// rawUp and rawProv give, per raw unit, the unit that first delivers
	// its value to the edge's tail and head (the designated provider, in
	// EdgeList order), or provLocal/provMissing.
	rawUp, rawProv []int32
	// recRep maps a record unit to the first record unit entering the same
	// node for the same destination: one per accumulated record.
	recRep []int32

	// The pair walk: the contributions of record unit u are
	// contribs[contribOff[u]:contribOff[u+1]], and those of the final merge
	// at dests[i] are finalContribs[finalOff[i]:finalOff[i+1]].
	contribOff    []int32
	contribs      []pairInput
	sources       []graph.NodeID // every pair's source, ascending
	dests         []graph.NodeID // every destination, ascending
	finalOff      []int32
	finalContribs []pairInput

	info      []destInfo // aligned with dests
	destOf    []int32    // node -> index into dests, or -1
	unitBytes []int32    // unit -> on-wire payload bytes
}

// unitIn returns the unit in [lo, hi) tagged with node, or -1. The range
// is one kind of one edge's units, so it is sorted by node.
func (e *Engine) unitIn(lo, hi int32, node graph.NodeID) int32 {
	end := hi
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if e.units[m].Node < node {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < end && e.units[lo].Node == node {
		return lo
	}
	return -1
}

// newConstruction derives the dense view in one pass per stage: edge
// ranges, providers, record representatives, then one walk over every
// pair's path that records each record assembly's contributions.
func (e *Engine) newConstruction() (*construction, error) {
	inst := e.Plan.Inst
	nNodes := inst.Net.Len()
	edges := inst.EdgeList
	units := e.units
	cx := &construction{
		unitEdge: make([]int32, len(units)),
		edgeOff:  make([]int32, len(edges)+1),
		rawUp:    make([]int32, len(units)),
		rawProv:  make([]int32, len(units)),
		recRep:   make([]int32, len(units)),
	}

	// Edge ranges, split at each edge's first record unit so a unit is
	// found by a search within one kind of one edge's units; and the
	// edges grouped by tail and by head.
	aggOff := make([]int32, len(edges))
	ui := 0
	for ei, eg := range edges {
		cx.edgeOff[ei] = int32(ui)
		for ui < len(units) && units[ui].Edge == eg && units[ui].Kind == plan.UnitRaw {
			cx.unitEdge[ui] = int32(ei)
			ui++
		}
		aggOff[ei] = int32(ui)
		for ui < len(units) && units[ui].Edge == eg {
			cx.unitEdge[ui] = int32(ei)
			ui++
		}
	}
	cx.edgeOff[len(edges)] = int32(ui)
	if ui != len(units) {
		panic("sim: plan units out of EdgeList order") // unreachable: Plan.Units lists them so
	}
	// EdgeList is sorted by tail, so node n's out-edges are the range
	// [fromOff[n], fromOff[n+1]).
	fromOff := make([]int32, nNodes+1)
	for _, eg := range edges {
		fromOff[eg.From+1]++
	}
	for n := 0; n < nNodes; n++ {
		fromOff[n+1] += fromOff[n]
	}
	inOff, inEdges := graph.GroupBy(len(edges), nNodes, func(ei int) int32 { return int32(edges[ei].To) })
	edgeIndex := func(from, to graph.NodeID) int32 {
		for ei := fromOff[from]; ei < fromOff[from+1]; ei++ {
			if edges[ei].To == to {
				return ei
			}
		}
		return -1
	}

	// Providers: for each source, the fixpoint over its raw units in
	// EdgeList order; the first unit to reach a node provides it there.
	srcOff, bySrc := graph.GroupBy(len(units), nNodes, func(i int) int32 {
		if units[i].Kind != plan.UnitRaw {
			return -1
		}
		return int32(units[i].Node)
	})
	avail := make([]int32, nNodes) // s+1 where source s's raw value is available
	provAt := make([]int32, nNodes)
	for s := 0; s < nNodes; s++ {
		rs := bySrc[srcOff[s]:srcOff[s+1]]
		if len(rs) == 0 {
			continue
		}
		mark := int32(s + 1)
		avail[s] = mark
		for changed := true; changed; {
			changed = false
			for _, r := range rs {
				eg := units[r].Edge
				if avail[eg.From] == mark && avail[eg.To] != mark {
					avail[eg.To] = mark
					provAt[eg.To] = r
					changed = true
				}
			}
		}
		at := func(n graph.NodeID) int32 {
			switch {
			case int(n) == s:
				return provLocal
			case avail[n] != mark:
				return provMissing
			}
			return provAt[n]
		}
		for _, r := range rs {
			cx.rawUp[r] = at(units[r].Edge.From)
			cx.rawProv[r] = at(units[r].Edge.To)
		}
	}
	// rawAt is the provider of source s's value at node n != s: any raw
	// unit of s entering n knows it.
	rawAt := func(n, s graph.NodeID) int32 {
		for _, ei := range inEdges[inOff[n]:inOff[n+1]] {
			if r := e.unitIn(cx.edgeOff[ei], aggOff[ei], s); r >= 0 {
				return cx.rawProv[r]
			}
		}
		return provMissing
	}

	// Record representatives, node by node over the in-edges.
	seen := make([]int32, nNodes) // d's record at node n seen: n+1
	rep := make([]int32, nNodes)
	for n := 0; n < nNodes; n++ {
		for _, ei := range inEdges[inOff[n]:inOff[n+1]] {
			for a := aggOff[ei]; a < cx.edgeOff[ei+1]; a++ {
				d := units[a].Node
				if seen[d] != int32(n+1) {
					seen[d] = int32(n + 1)
					rep[d] = a
				}
				cx.recRep[a] = rep[d]
			}
		}
	}

	// Pairs in walk order: destination by destination, each one's sources
	// ascending, so pair r of destination cx.dests[di] is finalOff[di]+r.
	cx.dests = inst.Dests()
	cx.info = make([]destInfo, len(cx.dests))
	cx.destOf = make([]int32, nNodes)
	for i := range cx.destOf {
		cx.destOf[i] = -1
	}
	cx.finalOff = make([]int32, len(cx.dests)+1)
	for di, d := range cx.dests {
		f := inst.SpecByDest[d].Func
		cx.info[di] = destInfo{fn: f, sources: f.Sources()}
		cx.destOf[d] = int32(di)
		cx.finalOff[di+1] = cx.finalOff[di] + int32(len(cx.info[di].sources))
	}
	nPairs := cx.finalOff[len(cx.dests)]

	// The pair walk, in two passes over the routes. At node n = path[i] a
	// pair arrives as the record of its in-edge if that edge aggregates d,
	// and as a raw value otherwise. The first pass looks up each route,
	// finds the record unit of d on every hop, or -1, and counts each
	// unit's contributions; it also resolves each pair's parameter, and
	// each destination's function once its sources are proven (RecordLen
	// probes PreAgg on the first source when the Func has no InPlace
	// form). The second pass places every contribution in walk order, so
	// each assembly sees its pairs in ascending source order.
	hops := 0
	for ei := range edges {
		hops += len(inst.Pairs(ei))
	}
	hopUnit := make([]int32, 0, hops)
	paths := make([][]graph.NodeID, nPairs)
	params := make([]float64, nPairs)
	cx.contribOff = make([]int32, len(units)+1)
	isSource := make([]bool, nNodes)
	for di, d := range cx.dests {
		info := &cx.info[di]
		for r, s := range info.sources {
			param, err := agg.ParamOf(info.fn, s)
			if err != nil {
				return nil, fmt.Errorf("sim: record for %d: %w", d, err)
			}
			isSource[s] = true
			path := inst.Paths[plan.Pair{Source: s, Dest: d}]
			pi := cx.finalOff[di] + int32(r)
			paths[pi], params[pi] = path, param
			for i := 0; i+1 < len(path); i++ {
				ei := edgeIndex(path[i], path[i+1])
				if ei < 0 {
					return nil, fmt.Errorf("sim: pair %d→%d crosses %d→%d, which carries no pairs", s, d, path[i], path[i+1])
				}
				a := e.unitIn(aggOff[ei], cx.edgeOff[ei+1], d)
				if a >= 0 {
					cx.contribOff[a+1]++
				}
				hopUnit = append(hopUnit, a)
			}
		}
		info.alg = kernelKind(info.fn)
		info.recLen = int32(agg.RecordLen(info.fn))
		info.unitBytes = int32(agg.UnitBytes(info.fn))
	}
	for u := 1; u <= len(units); u++ {
		cx.contribOff[u] += cx.contribOff[u-1]
	}
	arrival := func(n, s graph.NodeID, pos int, inAgg int32, param float64) pairInput {
		switch {
		case pos == 0:
			return pairInput{source: s, rec: -1, prov: provLocal, param: param}
		case inAgg >= 0:
			return pairInput{source: s, rec: inAgg}
		}
		return pairInput{source: s, rec: -1, prov: rawAt(n, s), param: param}
	}
	cx.contribs = make([]pairInput, cx.contribOff[len(units)])
	cx.finalContribs = make([]pairInput, nPairs)
	next := slices.Clone(cx.contribOff[:len(units)]) // unit -> its next contribution's index
	h := 0
	for di, d := range cx.dests {
		for r, s := range cx.info[di].sources {
			pi := cx.finalOff[di] + int32(r)
			path, param := paths[pi], params[pi]
			inAgg := int32(-1)
			for i := 0; i+1 < len(path); i++ {
				a := hopUnit[h]
				h++
				if a >= 0 {
					cx.contribs[next[a]] = arrival(path[i], s, i, inAgg, param)
					next[a]++
				}
				inAgg = a
			}
			cx.finalContribs[pi] = arrival(d, s, len(path)-1, inAgg, param)
		}
	}
	nSources := 0
	for _, ok := range isSource {
		if ok {
			nSources++
		}
	}
	cx.sources = make([]graph.NodeID, 0, nSources)
	for n, ok := range isSource {
		if ok {
			cx.sources = append(cx.sources, graph.NodeID(n))
		}
	}
	cx.unitBytes = make([]int32, len(units))
	for i, u := range units {
		if u.Kind == plan.UnitRaw {
			cx.unitBytes[i] = agg.RawUnitBytes
		} else {
			cx.unitBytes[i] = cx.info[cx.destOf[u.Node]].unitBytes
		}
	}
	return cx, nil
}

// buildDeps derives each unit's wait-for set (Section 3): a forwarded raw
// value waits for the copy that delivered it; a partial record waits for
// the upstream records and raw values it merges.
func (e *Engine) buildDeps(cx *construction) error {
	e.deps = make([][]int, len(e.units))
	backing := make([]int, 0, len(e.units)+len(cx.contribs))
	for i, u := range e.units {
		lo := len(backing)
		if u.Kind == plan.UnitRaw {
			switch p := cx.rawUp[i]; p {
			case provLocal:
			case provMissing:
				return fmt.Errorf("sim: raw %d unavailable at %d", u.Node, u.Edge.From)
			default:
				backing = append(backing, int(p))
			}
		} else {
			for _, c := range cx.contribs[cx.contribOff[i]:cx.contribOff[i+1]] {
				switch {
				case c.rec >= 0:
					backing = append(backing, int(c.rec))
				case c.prov == provMissing:
					return fmt.Errorf("sim: raw %d unavailable at %d for record %d", c.source, u.Edge.From, u.Node)
				case c.prov != provLocal:
					backing = append(backing, int(c.prov))
				}
			}
		}
		ds := backing[lo:]
		sort.Ints(ds)
		ds = slices.Compact(ds)
		backing = backing[:lo+len(ds)]
		if len(ds) > 0 {
			e.deps[i] = ds[:len(ds):len(ds)]
		}
	}
	return nil
}

// RoundResult reports one executed round.
type RoundResult struct {
	// Values holds every destination's exactly computed aggregate.
	Values map[graph.NodeID]float64
	// EnergyJ is the total radio energy (sender TX + receiver RX) of the
	// round in joules.
	EnergyJ float64
	// Messages is the number of physical messages sent.
	Messages int
	// Units is the number of message units carried.
	Units int
	// BodyBytes is the total unit payload (excluding headers).
	BodyBytes int
	// OnAirBytes includes per-message headers.
	OnAirBytes int
	// PerNodeJ is each node's share of the round energy (TX at senders,
	// RX at receivers) — the basis of the paper's bottleneck argument for
	// in-network control. Treat as read-only.
	PerNodeJ map[graph.NodeID]float64
}

// Observer receives every message unit as the round produces it: raw
// units come with their value, record units with their partial aggregate.
// Used for execution tracing (cmd/m2msim -trace).
type Observer func(u plan.Unit, raw float64, rec agg.Record)

// Run executes one round with the given readings (one per node; sources
// not present default to 0) and returns the computed destination values
// plus the round's communication cost. It executes the compiled round
// program over a pooled RoundState: beyond the returned result and its
// Values map, a steady-state round performs no heap allocations.
func (e *Engine) Run(readings map[graph.NodeID]float64) (*RoundResult, error) {
	st := e.getState()
	defer e.putState(st)
	res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
	e.runCompiled(readings, st, res.Values, nil)
	e.fillResult(res)
	e.drainStatic()
	return res, nil
}

// drainStatic debits the static per-round spend from the battery ledger
// after a fault-free round. The fault-free executors cannot model a node
// falling silent mid-round (no frame there can be lost), so exhaustion is
// applied at the round boundary; exhaustion *failures* — silenced
// senders, unheard receivers — only manifest on the lossy and async
// paths. No-op without a ledger; allocation-free with one.
func (e *Engine) drainStatic() {
	if e.battery == nil {
		return
	}
	round := int(e.batRound.Add(1)) - 1
	e.battery.DrainPerRound(round, e.perNodeJ)
}

// RunObserved is Run with a unit-level observer (nil behaves like Run).
// Observed records are cloned before the observer sees them, so observers
// may retain them.
func (e *Engine) RunObserved(readings map[graph.NodeID]float64, obs Observer) (*RoundResult, error) {
	if obs == nil {
		return e.Run(readings)
	}
	st := e.getState()
	defer e.putState(st)
	res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
	e.runCompiled(readings, st, res.Values, obs)
	e.fillResult(res)
	e.drainStatic()
	return res, nil
}

// PerNodeEnergy returns each node's precomputed share of one full round's
// energy under the engine's options. The map is owned by the engine; treat
// it as read-only. It is reading-independent, so lifetime estimates can
// use it without executing a round.
func (e *Engine) PerNodeEnergy() map[graph.NodeID]float64 { return e.perNodeJ }

// accountEnergy prices the message layout: each message is one unicast of
// header + its units' payloads per physical hop of its edge, inflated by
// the ARQ expectation on lossy links. Per-node attribution charges TX to
// the edge tail and RX to the head; for multi-hop virtual edges the
// relaying between milestones is split evenly between the endpoints (the
// intermediate relays are chosen by the communication layer at runtime
// and unknown to the plan). Shares are summed per node in message order,
// then keyed by node once.
func (e *Engine) accountEnergy(unitBytes []int32, edgeHops func(routing.Edge) int, linkLoss func(routing.Edge) float64) error {
	e.energyJ = 0
	e.bodyBytes = 0
	perNode := make([]float64, e.Plan.Inst.Net.Len())
	charged := make([]bool, len(perNode))
	nCharged := 0
	charge := func(n graph.NodeID, j float64) {
		perNode[n] += j
		if !charged[n] {
			charged[n] = true
			nCharged++
		}
	}
	for _, msg := range e.messages {
		body := 0
		for _, ui := range msg {
			body += int(unitBytes[ui])
		}
		edge := e.units[msg[0]].Edge
		hops := 1
		if edgeHops != nil {
			if h := edgeHops(edge); h > 0 {
				hops = h
			}
		}
		arq := 1.0
		if linkLoss != nil {
			f, err := radio.ARQFactor(linkLoss(edge))
			if err != nil {
				return fmt.Errorf("sim: edge %v: %w", edge, err)
			}
			arq = f
		}
		e.bodyBytes += body
		total := arq * float64(hops) * e.Radio.UnicastJoules(body)
		e.energyJ += total
		if hops == 1 {
			charge(edge.From, arq*e.Radio.TxJoules(body))
			charge(edge.To, arq*e.Radio.RxJoules(body))
		} else {
			charge(edge.From, total/2)
			charge(edge.To, total/2)
		}
	}
	e.perNodeJ = make(map[graph.NodeID]float64, nCharged)
	for n, ok := range charged {
		if ok {
			e.perNodeJ[graph.NodeID(n)] = perNode[n]
		}
	}
	return nil
}

package sim

import (
	"fmt"
	"sort"
	"sync"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// Policy selects the paper's override heuristic (Section 3, "Continuous
// Control with Suppression"): when a node holds a changed raw value that
// the default plan folds into partial records, it may instead keep the
// value raw, trading downstream aggregation opportunities for fewer units
// now. Aggressive overrides whenever raw is locally no more expensive,
// conservative only when raw is at most half the aggregation cost, medium
// in between. PolicyNone executes the default plan with plain suppression.
type Policy int

// Override policies.
const (
	PolicyNone Policy = iota
	PolicyConservative
	PolicyMedium
	PolicyAggressive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyConservative:
		return "conservative"
	case PolicyMedium:
		return "medium"
	case PolicyAggressive:
		return "aggressive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// threshold returns θ such that the node overrides when
// rawCost ≤ θ · aggregationCost.
func (p Policy) threshold() float64 {
	switch p {
	case PolicyConservative:
		return 0.5
	case PolicyMedium:
		return 0.75
	case PolicyAggressive:
		return 1.0
	default:
		return 0
	}
}

// pairRoute is the precomputed suppression-relevant geometry of one pair:
// where its contribution enters record form under the default plan, plus
// the dense ids of every per-round fact the route can touch, so Round
// marks flat arrays instead of filling maps.
type pairRoute struct {
	pair plan.Pair
	path []graph.NodeID
	// aggIdx is the index of the first edge carrying the pair in record
	// form (Agg[dest] set), or -1 if the value travels raw all the way and
	// is pre-aggregated at the destination itself.
	aggIdx int
	// preNode holds the pre-aggregation entry for this pair: the tail of
	// the aggIdx edge, or the destination when aggIdx == -1.
	preNode graph.NodeID

	// Per path position i (edge path[i]→path[i+1]): the dense edge id, the
	// (edge, source) raw-flow id, and the (edge, dest) record-flow id.
	edgeAt []int32
	rawAt  []int32
	flowAt []int32
	// workAt is the dense override-work id of (path[i], source) for the
	// positions the flexible mode can reconsider the value at (aggIdx
	// onward); -1 elsewhere.
	workAt []int32
	// destIdx indexes the pair's destination in Instance.Dests() order.
	destIdx int32
}

// Suppressor executes a plan in temporal-suppression mode: each round only
// the changed sources transmit (deltas), empty records are suppressed, and
// the chosen override policy may keep changed values raw.
//
// Delta semantics require every aggregation function to be Linear
// (weighted sums); NewSuppressor rejects other workloads, mirroring the
// paper's note that suppression suits some aggregation functions only.
//
// Like the engine, construction interns every edge, (edge, dest) record
// flow, and (edge, source) raw flow into dense ids; Round then runs over
// pooled flat scratch (suppressScratch) with identical outputs and
// decision ordering to the original map-keyed implementation.
type Suppressor struct {
	Plan   *plan.Plan
	Radio  radio.Model
	Policy Policy
	// Flexible enables Section 3's "more flexible alternative": the
	// pre-aggregation function of every value is stored at every node on
	// its multicast path, so an overridden raw value is reconsidered at
	// each hop and can re-enter record form downstream instead of staying
	// raw to the destination. Costs extra state (ExtraStateEntries).
	Flexible bool

	routes []pairRoute

	edgeOrder []routing.Edge // fired-edge energy summation order: by (From, To)
	edgeIdx   []int32        // parallel to edgeOrder: the dense edge id
	nEdges    int

	rawFlowEdge []int32 // raw flow -> dense edge id
	nRawFlows   int
	recFlowEdge []int32 // record flow -> dense edge id
	recFlowByte []int32 // record flow -> record unit payload bytes
	nRecFlows   int

	// seedRaws lists every (edge, source) the default plan ships raw, for
	// per-round marking of the changed ones.
	seedRaws []seedRaw

	// preKeys lists the (preNode, source) override decision units,
	// ascending by (node, source) — the order the map-based implementation
	// visited them in. preRoutes and preWork are parallel: the route
	// indices of each unit and its dense work id (flexible mode).
	preKeys   []nodeSource
	preRoutes [][]int32
	preWork   []int32
	nWork     int

	destList []graph.NodeID

	scratch sync.Pool
}

type seedRaw struct {
	flow int32
	src  graph.NodeID
}

// NewSuppressorFlexible is NewSuppressor with the store-weights-everywhere
// alternative enabled.
func NewSuppressorFlexible(p *plan.Plan, model radio.Model, policy Policy) (*Suppressor, error) {
	s, err := NewSuppressor(p, model, policy)
	if err != nil {
		return nil, err
	}
	s.Flexible = true
	return s, nil
}

// ExtraStateEntries counts the additional pre-aggregation entries the
// Flexible mode stores: one (source, dest) weight at every intermediate
// node of each pair's record segment beyond the single node the default
// plan uses.
func (s *Suppressor) ExtraStateEntries() int {
	extra := 0
	for _, rt := range s.routes {
		if rt.aggIdx < 0 {
			continue
		}
		// Nodes strictly after the pre-aggregation node, excluding the
		// destination (which always has its own weights).
		if n := len(rt.path) - rt.aggIdx - 2; n > 0 {
			extra += n
		}
	}
	return extra
}

// NewSuppressor validates and precomputes suppression execution for p.
func NewSuppressor(p *plan.Plan, model radio.Model, policy Policy) (*Suppressor, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	s := &Suppressor{Plan: p, Radio: model, Policy: policy}
	for _, sp := range p.Inst.Specs {
		if !sp.Func.Linear() {
			return nil, fmt.Errorf("sim: suppression requires linear aggregates; destination %d uses %s",
				sp.Dest, sp.Func.Name())
		}
	}
	var pairs []plan.Pair
	for pr := range p.Inst.Paths {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Source != pairs[j].Source {
			return pairs[i].Source < pairs[j].Source
		}
		return pairs[i].Dest < pairs[j].Dest
	})
	for _, pr := range pairs {
		path := p.Inst.Paths[pr]
		rt := pairRoute{pair: pr, path: path, aggIdx: -1, preNode: pr.Dest}
		for i := 0; i+1 < len(path); i++ {
			e := routing.Edge{From: path[i], To: path[i+1]}
			if p.Solution(e).Agg[pr.Dest] {
				rt.aggIdx = i
				rt.preNode = path[i]
				break
			}
		}
		// Suppression bookkeeping assumes a single aggregation point: once
		// in record form, the pair stays in record form.
		if rt.aggIdx >= 0 {
			for i := rt.aggIdx; i+1 < len(path); i++ {
				e := routing.Edge{From: path[i], To: path[i+1]}
				if !p.Solution(e).Agg[pr.Dest] {
					return nil, fmt.Errorf("sim: pair %d→%d leaves record form after edge %v; plan unsupported for suppression",
						pr.Source, pr.Dest, e)
				}
			}
		}
		s.routes = append(s.routes, rt)
	}
	s.intern()
	s.scratch.New = func() any { return s.newScratch() }
	return s, nil
}

// intern assigns the dense ids Round runs over. All interning maps are
// construction-local; per-round state is flat arrays indexed by these ids.
func (s *Suppressor) intern() {
	inst := s.Plan.Inst

	edgeID := make(map[routing.Edge]int32)
	edge := func(e routing.Edge) int32 {
		id, ok := edgeID[e]
		if !ok {
			id = int32(s.nEdges)
			s.nEdges++
			edgeID[e] = id
		}
		return id
	}
	type edgeSrc struct {
		edge int32
		src  graph.NodeID
	}
	rawID := make(map[edgeSrc]int32)
	rawFlow := func(eid int32, src graph.NodeID) int32 {
		k := edgeSrc{edge: eid, src: src}
		id, ok := rawID[k]
		if !ok {
			id = int32(s.nRawFlows)
			s.nRawFlows++
			rawID[k] = id
			s.rawFlowEdge = append(s.rawFlowEdge, eid)
		}
		return id
	}
	type edgeDest struct {
		edge int32
		dest graph.NodeID
	}
	recID := make(map[edgeDest]int32)
	recFlow := func(eid int32, d graph.NodeID) int32 {
		k := edgeDest{edge: eid, dest: d}
		id, ok := recID[k]
		if !ok {
			id = int32(s.nRecFlows)
			s.nRecFlows++
			recID[k] = id
			s.recFlowEdge = append(s.recFlowEdge, eid)
			s.recFlowByte = append(s.recFlowByte, int32(agg.UnitBytes(inst.SpecByDest[d].Func)))
		}
		return id
	}

	// The raw units the default plan ships, in deterministic order.
	for i, e := range inst.EdgeList {
		eid := edge(e)
		var srcs []graph.NodeID
		for src := range s.Plan.Sol[i].Raw {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, src := range srcs {
			s.seedRaws = append(s.seedRaws, seedRaw{flow: rawFlow(eid, src), src: src})
		}
	}

	s.destList = inst.Dests()
	destIdx := make(map[graph.NodeID]int32, len(s.destList))
	for i, d := range s.destList {
		destIdx[d] = int32(i)
	}

	// Override work units: (node, source) keys ordered ascending so the
	// dense min-id heap pops them in exactly the order the map-based
	// implementation sorted them.
	workKeySet := make(map[nodeSource]bool)
	for i := range s.routes {
		rt := &s.routes[i]
		if rt.aggIdx < 0 {
			continue
		}
		for j := rt.aggIdx; j+1 < len(rt.path); j++ {
			workKeySet[nodeSource{node: rt.path[j], source: rt.pair.Source}] = true
		}
	}
	workKeys := make([]nodeSource, 0, len(workKeySet))
	for k := range workKeySet {
		workKeys = append(workKeys, k)
	}
	sort.Slice(workKeys, func(i, j int) bool {
		if workKeys[i].node != workKeys[j].node {
			return workKeys[i].node < workKeys[j].node
		}
		return workKeys[i].source < workKeys[j].source
	})
	workID := make(map[nodeSource]int32, len(workKeys))
	for i, k := range workKeys {
		workID[k] = int32(i)
	}
	s.nWork = len(workKeys)

	preRoutes := make(map[nodeSource][]int32)
	for i := range s.routes {
		rt := &s.routes[i]
		n := len(rt.path) - 1
		rt.edgeAt = make([]int32, n)
		rt.rawAt = make([]int32, n)
		rt.flowAt = make([]int32, n)
		rt.workAt = make([]int32, n)
		rt.destIdx = destIdx[rt.pair.Dest]
		for j := 0; j < n; j++ {
			eid := edge(routing.Edge{From: rt.path[j], To: rt.path[j+1]})
			rt.edgeAt[j] = eid
			rt.rawAt[j] = rawFlow(eid, rt.pair.Source)
			rt.flowAt[j] = recFlow(eid, rt.pair.Dest)
			rt.workAt[j] = -1
			if rt.aggIdx >= 0 && j >= rt.aggIdx {
				rt.workAt[j] = workID[nodeSource{node: rt.path[j], source: rt.pair.Source}]
			}
		}
		if rt.aggIdx >= 0 {
			k := nodeSource{node: rt.preNode, source: rt.pair.Source}
			preRoutes[k] = append(preRoutes[k], int32(i))
		}
	}
	for k := range preRoutes {
		s.preKeys = append(s.preKeys, k)
	}
	sort.Slice(s.preKeys, func(i, j int) bool {
		if s.preKeys[i].node != s.preKeys[j].node {
			return s.preKeys[i].node < s.preKeys[j].node
		}
		return s.preKeys[i].source < s.preKeys[j].source
	})
	s.preRoutes = make([][]int32, len(s.preKeys))
	s.preWork = make([]int32, len(s.preKeys))
	for i, k := range s.preKeys {
		s.preRoutes[i] = preRoutes[k]
		s.preWork[i] = workID[k]
	}

	// Fired-edge energy is summed ascending by (From, To), matching the
	// previous implementation's sort bit for bit.
	s.edgeOrder = make([]routing.Edge, 0, s.nEdges)
	for e := range edgeID {
		s.edgeOrder = append(s.edgeOrder, e)
	}
	sort.Slice(s.edgeOrder, func(i, j int) bool {
		if s.edgeOrder[i].From != s.edgeOrder[j].From {
			return s.edgeOrder[i].From < s.edgeOrder[j].From
		}
		return s.edgeOrder[i].To < s.edgeOrder[j].To
	})
	s.edgeIdx = make([]int32, len(s.edgeOrder))
	for i, e := range s.edgeOrder {
		s.edgeIdx[i] = edgeID[e]
	}
}

// suppressScratch is one round's flat working set, recycled through the
// suppressor's pool.
type suppressScratch struct {
	contribCount []int32 // per record flow: changed contributions
	recordStart  []int32 // per route: record-entry position, -1 absent
	rawSet       []bool  // per raw flow: a changed raw unit fires on it
	recordsOn    []bool  // per record flow: a record unit fires on it
	bodyByEdge   []int32 // per edge: fired payload bytes
	edgeMark     []bool  // per edge: decide()'s distinct-out-edge marker
	touched      []int32
	posBuf       []int32

	// Flexible-mode work queue: per work id the pending routes and their
	// path positions, an active flag, and a min-id heap standing in for
	// the map version's sort-smallest-key-each-iteration loop.
	wiRoutes [][]int32
	wiPos    [][]int32
	inWork   []bool
	heap     []int32

	byDest []agg.Record // per destination index: accumulated delta record
}

func (s *Suppressor) newScratch() *suppressScratch {
	return &suppressScratch{
		contribCount: make([]int32, s.nRecFlows),
		recordStart:  make([]int32, len(s.routes)),
		rawSet:       make([]bool, s.nRawFlows),
		recordsOn:    make([]bool, s.nRecFlows),
		bodyByEdge:   make([]int32, s.nEdges),
		edgeMark:     make([]bool, s.nEdges),
		wiRoutes:     make([][]int32, s.nWork),
		wiPos:        make([][]int32, s.nWork),
		inWork:       make([]bool, s.nWork),
		byDest:       make([]agg.Record, len(s.destList)),
	}
}

func (s *Suppressor) getScratch() *suppressScratch {
	sc := s.scratch.Get().(*suppressScratch)
	for i := range sc.contribCount {
		sc.contribCount[i] = 0
	}
	for i := range sc.recordStart {
		sc.recordStart[i] = -1
	}
	for i := range sc.rawSet {
		sc.rawSet[i] = false
	}
	for i := range sc.recordsOn {
		sc.recordsOn[i] = false
	}
	for i := range sc.bodyByEdge {
		sc.bodyByEdge[i] = 0
	}
	for i := range sc.byDest {
		sc.byDest[i] = nil
	}
	return sc
}

func (s *Suppressor) putScratch(sc *suppressScratch) { s.scratch.Put(sc) }

// heapPush and heapPop maintain sc.heap as a binary min-heap of work ids.
func heapPush(h []int32, x int32) []int32 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []int32) (int32, []int32) {
	x := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return x, h
}

// SuppressionRound reports one suppressed round.
type SuppressionRound struct {
	// DeltaValues is the exact change of each destination's aggregate this
	// round (destinations with no changed sources are absent).
	DeltaValues map[graph.NodeID]float64
	// EnergyJ is the round's total radio energy.
	EnergyJ float64
	// PerNodeJ attributes EnergyJ to the radios that spent it (TX at the
	// sender, RX at the receiver of every fired message) — the observed
	// per-node burn lifetime estimates run on. Treat as read-only.
	PerNodeJ map[graph.NodeID]float64
	// Messages counts physical messages (one per edge carrying units).
	Messages int
	// RawUnits and RecordUnits count transmitted units by kind.
	RawUnits, RecordUnits int
	// Overrides counts (node, value) override decisions taken.
	Overrides int
}

// Round executes one suppressed round. deltas maps each changed source to
// its value change; unchanged sources must be absent.
func (s *Suppressor) Round(deltas map[graph.NodeID]float64) (*SuppressionRound, error) {
	inst := s.Plan.Inst
	changed := func(n graph.NodeID) bool {
		_, ok := deltas[n]
		return ok
	}
	for n := range deltas {
		if int(n) < 0 || int(n) >= inst.Net.Len() {
			return nil, fmt.Errorf("sim: changed node %d out of range", n)
		}
	}
	sc := s.getScratch()
	defer s.putScratch(sc)

	// contribCount[flow]: the record carries this many changed,
	// non-overridden contributions. First pass ignores overrides to price
	// the aggregation option; override decisions then prune contributions.
	for ri := range s.routes {
		rt := &s.routes[ri]
		if !changed(rt.pair.Source) || rt.aggIdx < 0 {
			continue
		}
		for i := rt.aggIdx; i+1 < len(rt.path); i++ {
			sc.contribCount[rt.flowAt[i]]++
		}
	}

	res := &SuppressionRound{
		DeltaValues: make(map[graph.NodeID]float64),
		PerNodeJ:    make(map[graph.NodeID]float64),
	}
	for _, sr := range s.seedRaws {
		if changed(sr.src) {
			sc.rawSet[sr.flow] = true
		}
	}

	// recordStart[route] is the edge index from which the pair's
	// contribution travels in record form this round; len(path) (or
	// beyond) means it stays raw to the destination; -1 means unchanged.
	for ri := range s.routes {
		rt := &s.routes[ri]
		if changed(rt.pair.Source) && rt.aggIdx >= 0 {
			sc.recordStart[ri] = int32(rt.aggIdx)
		}
	}

	theta := s.Policy.threshold()
	if theta > 0 {
		// decide evaluates the override heuristic for one value at one
		// node: A is the marginal cost of folding it into records here
		// (records no other changed contribution would fire), B the local
		// cost of keeping it raw.
		decide := func(items []int32, pos []int32) bool {
			aggCost := 0
			distinct := 0
			for k, ri := range items {
				rt := &s.routes[ri]
				i := pos[k]
				fl := rt.flowAt[i]
				if sc.contribCount[fl] == 1 {
					aggCost += int(s.recFlowByte[fl])
				}
				if eid := rt.edgeAt[i]; !sc.edgeMark[eid] {
					sc.edgeMark[eid] = true
					sc.touched = append(sc.touched, eid)
					distinct++
				}
			}
			for _, eid := range sc.touched {
				sc.edgeMark[eid] = false
			}
			sc.touched = sc.touched[:0]
			rawCost := distinct * agg.RawUnitBytes
			return aggCost > 0 && float64(rawCost) <= theta*float64(aggCost)
		}

		if !s.Flexible {
			// Default plan: only the pre-aggregation node holds the weights,
			// so an overridden value stays raw to its destinations — the
			// paper's noted risk of override.
			for ki, k := range s.preKeys {
				if !changed(k.source) {
					continue
				}
				items := s.preRoutes[ki]
				pos := sc.posBuf[:0]
				for _, ri := range items {
					pos = append(pos, int32(s.routes[ri].aggIdx))
				}
				sc.posBuf = pos[:0]
				if decide(items, pos) {
					res.Overrides++
					for _, ri := range items {
						rt := &s.routes[ri]
						for i := rt.aggIdx; i+1 < len(rt.path); i++ {
							sc.rawSet[rt.rawAt[i]] = true
						}
						sc.recordStart[ri] = int32(len(rt.path)) // never in record form
					}
				}
			}
		} else {
			// Flexible alternative (Section 3): weights live at every path
			// node, so an overridden value is reconsidered hop by hop and
			// may re-enter record form downstream. Work ids were assigned
			// ascending by (node, source), so the min-id heap reproduces
			// the map implementation's smallest-key-first iteration.
			activate := func(wid int32, ri, pos int32) {
				sc.wiRoutes[wid] = append(sc.wiRoutes[wid], ri)
				sc.wiPos[wid] = append(sc.wiPos[wid], pos)
				if !sc.inWork[wid] {
					sc.inWork[wid] = true
					sc.heap = heapPush(sc.heap, wid)
				}
			}
			for ki, k := range s.preKeys {
				if !changed(k.source) {
					continue
				}
				for _, ri := range s.preRoutes[ki] {
					activate(s.preWork[ki], ri, int32(s.routes[ri].aggIdx))
				}
			}
			for len(sc.heap) > 0 {
				var wid int32
				wid, sc.heap = heapPop(sc.heap)
				routes, pos := sc.wiRoutes[wid], sc.wiPos[wid]
				sc.inWork[wid] = false
				sc.wiRoutes[wid] = sc.wiRoutes[wid][:0]
				sc.wiPos[wid] = sc.wiPos[wid][:0]
				if !decide(routes, pos) {
					// Fold here: records fire from each route's position.
					for k, ri := range routes {
						sc.recordStart[ri] = pos[k]
					}
					continue
				}
				res.Overrides++
				for k, ri := range routes {
					rt := &s.routes[ri]
					i := pos[k]
					sc.rawSet[rt.rawAt[i]] = true
					next := i + 1
					if int(next) >= len(rt.path)-1 {
						// Reached the destination: it folds locally.
						sc.recordStart[ri] = int32(len(rt.path))
						continue
					}
					activate(rt.workAt[next], ri, next)
				}
			}
		}
	}

	// Fired records: changed contributions from their (possibly deferred)
	// record-entry position onward.
	for ri := range s.routes {
		start := sc.recordStart[ri]
		if start < 0 {
			continue
		}
		rt := &s.routes[ri]
		for i := int(start); i+1 < len(rt.path); i++ {
			sc.recordsOn[rt.flowAt[i]] = true
		}
	}

	// Self-check: every changed pair must be covered on every edge of its
	// path by a fired raw unit or a fired record.
	for ri := range s.routes {
		rt := &s.routes[ri]
		if !changed(rt.pair.Source) {
			continue
		}
		for i := 0; i+1 < len(rt.path); i++ {
			if !sc.rawSet[rt.rawAt[i]] && !sc.recordsOn[rt.flowAt[i]] {
				return nil, fmt.Errorf("sim: suppression left pair %d→%d uncovered on %v",
					rt.pair.Source, rt.pair.Dest, routing.Edge{From: rt.path[i], To: rt.path[i+1]})
			}
		}
	}

	// Energy: one message per edge carrying any unit.
	for fl, on := range sc.rawSet {
		if on {
			sc.bodyByEdge[s.rawFlowEdge[fl]] += agg.RawUnitBytes
			res.RawUnits++
		}
	}
	for fl, on := range sc.recordsOn {
		if on {
			sc.bodyByEdge[s.recFlowEdge[fl]] += s.recFlowByte[fl]
			res.RecordUnits++
		}
	}
	// Deterministic summation order keeps energies bit-identical across
	// runs and modes.
	for i := range s.edgeOrder {
		if body := sc.bodyByEdge[s.edgeIdx[i]]; body > 0 {
			res.EnergyJ += s.Radio.UnicastJoules(int(body))
			res.Messages++
			res.PerNodeJ[s.edgeOrder[i].From] += s.Radio.TxJoules(int(body))
			res.PerNodeJ[s.edgeOrder[i].To] += s.Radio.RxJoules(int(body))
		}
	}

	// Exact aggregate deltas (linearity): each changed pair contributes its
	// pre-aggregated delta at the destination regardless of route.
	for ri := range s.routes {
		rt := &s.routes[ri]
		dv, ok := deltas[rt.pair.Source]
		if !ok {
			continue
		}
		f := inst.SpecByDest[rt.pair.Dest].Func
		r := f.PreAgg(rt.pair.Source, dv)
		if prev := sc.byDest[rt.destIdx]; prev != nil {
			sc.byDest[rt.destIdx] = f.Merge(prev, r)
		} else {
			sc.byDest[rt.destIdx] = r
		}
	}
	for di, rec := range sc.byDest {
		if rec != nil {
			res.DeltaValues[s.destList[di]] = inst.SpecByDest[s.destList[di]].Func.Eval(rec)
		}
	}
	return res, nil
}

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

// nodeDest keys per-node accumulated partial records for a destination.
type nodeDest struct {
	node, dest graph.NodeID
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

	adversary Adversary    // optional corruption schedule (Options.Adversary)
	advRound  atomic.Int64 // fault-free rounds the adversary has seen

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
	// Adversary, when non-nil, corrupts source readings at the
	// pre-aggregation boundary of every executor (see the Adversary
	// interface). The fault-free executors number rounds with an internal
	// counter; the lossy and async executors use their explicit round
	// argument and prefer an adversary asserted from their fault schedule.
	Adversary Adversary
}

// NewEngine prepares an executor for p. It fails if the plan's wait-for
// graph is cyclic (impossible for valid plans, per Theorem 2).
func NewEngine(p *plan.Plan, model radio.Model, opts Options) (*Engine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{Plan: p, Radio: model, battery: opts.Battery, adversary: opts.Adversary}
	e.units = p.Units()
	provider := e.buildProviders()
	if err := e.buildDeps(provider); err != nil {
		return nil, err
	}
	e.provUnit = make([]bool, len(e.units))
	for i, u := range e.units {
		if u.Kind != plan.UnitRaw {
			continue
		}
		if prov, ok := provider[nodeSource{node: u.Edge.To, source: u.Node}]; ok && prov == u.Edge {
			e.provUnit[i] = true
		}
	}
	d := graph.NewDigraph(len(e.units))
	for u, ds := range e.deps {
		for _, dep := range ds {
			d.AddArc(dep, u)
		}
	}
	order, ok := d.TopoSort()
	if !ok {
		return nil, fmt.Errorf("sim: wait-for cycle among message units (Theorem 2 violated)")
	}
	e.order = order
	e.buildMessages(opts.MergeMessages)
	if err := e.orderMessages(); err != nil {
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
		if err := e.accountEnergy(opts.EdgeHops, opts.LinkLoss); err != nil {
			return nil, err
		}
	}
	if err := e.compile(); err != nil {
		return nil, err
	}
	e.pool.New = func() any { return e.NewRoundState() }
	e.lossyPool.New = func() any { return e.newLossyState() }
	return e, nil
}

// buildProviders picks, for every (node, source) with the source's raw
// value available, the deterministic in-edge that delivers it first. The
// map only lives through construction: per-unit facts derived from it
// (deps, provUnit) are stored as slices indexed by unit.
func (e *Engine) buildProviders() map[nodeSource]routing.Edge {
	provider := make(map[nodeSource]routing.Edge)
	edgesBySource := make(map[graph.NodeID][]routing.Edge)
	for _, eg := range e.Plan.Inst.EdgeList {
		for s := range e.Plan.Sol[eg].Raw {
			edgesBySource[s] = append(edgesBySource[s], eg)
		}
	}
	var sources []graph.NodeID
	for s := range edgesBySource {
		sources = append(sources, s)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, s := range sources {
		edges := edgesBySource[s] // already deterministic (EdgeList order)
		avail := map[graph.NodeID]bool{s: true}
		for changed := true; changed; {
			changed = false
			for _, eg := range edges {
				if avail[eg.From] && !avail[eg.To] {
					avail[eg.To] = true
					provider[nodeSource{node: eg.To, source: s}] = eg
					changed = true
				}
			}
		}
	}
	return provider
}

// buildDeps derives each unit's wait-for set (Section 3): a forwarded raw
// value waits for the copy that delivered it; a partial record waits for
// the upstream records and raw values it merges.
func (e *Engine) buildDeps(provider map[nodeSource]routing.Edge) error {
	unitIdx := make(map[plan.Unit]int, len(e.units))
	for i, u := range e.units {
		unitIdx[u] = i
	}
	e.deps = make([][]int, len(e.units))
	for i, u := range e.units {
		seen := make(map[int]bool)
		add := func(dep plan.Unit) error {
			j, ok := unitIdx[dep]
			if !ok {
				return fmt.Errorf("sim: unit %v depends on missing unit %v", u, dep)
			}
			if !seen[j] {
				seen[j] = true
				e.deps[i] = append(e.deps[i], j)
			}
			return nil
		}
		switch u.Kind {
		case plan.UnitRaw:
			if u.Edge.From == u.Node {
				continue // originates here
			}
			prov, ok := provider[nodeSource{node: u.Edge.From, source: u.Node}]
			if !ok {
				return fmt.Errorf("sim: raw %d unavailable at %d", u.Node, u.Edge.From)
			}
			if err := add(plan.Unit{Edge: prov, Kind: plan.UnitRaw, Node: u.Node}); err != nil {
				return err
			}
		case plan.UnitAgg:
			n := u.Edge.From
			for _, pr := range e.Plan.Inst.EdgePairs[u.Edge] {
				if pr.Dest != u.Node {
					continue
				}
				pos := e.Plan.Inst.PairEdgeIndex(pr, u.Edge)
				if pos == 0 {
					continue // the source is n itself: local reading
				}
				path := e.Plan.Inst.Paths[pr]
				in := routing.Edge{From: path[pos-1], To: path[pos]}
				if e.Plan.Sol[in].Agg[u.Node] {
					if err := add(plan.Unit{Edge: in, Kind: plan.UnitAgg, Node: u.Node}); err != nil {
						return err
					}
				} else {
					prov, ok := provider[nodeSource{node: n, source: pr.Source}]
					if !ok {
						return fmt.Errorf("sim: raw %d unavailable at %d for record %d", pr.Source, n, u.Node)
					}
					if err := add(plan.Unit{Edge: prov, Kind: plan.UnitRaw, Node: pr.Source}); err != nil {
						return err
					}
				}
			}
		}
		sort.Ints(e.deps[i])
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
	e.runCompiled(e.nextAdvRound(), readings, st, res.Values, nil)
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
	e.runCompiled(e.nextAdvRound(), readings, st, res.Values, obs)
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
// and unknown to the plan).
func (e *Engine) accountEnergy(edgeHops func(routing.Edge) int, linkLoss func(routing.Edge) float64) error {
	e.energyJ = 0
	e.bodyBytes = 0
	e.perNodeJ = make(map[graph.NodeID]float64)
	for _, msg := range e.messages {
		body := 0
		for _, ui := range msg {
			body += e.Plan.Bytes(e.units[ui])
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
			e.perNodeJ[edge.From] += arq * e.Radio.TxJoules(body)
			e.perNodeJ[edge.To] += arq * e.Radio.RxJoules(body)
		} else {
			e.perNodeJ[edge.From] += total / 2
			e.perNodeJ[edge.To] += total / 2
		}
	}
	return nil
}

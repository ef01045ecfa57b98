// Package chaos is a deterministic, seedable fault injector for the
// execution layer. It models the failure classes of Section 3 as a
// schedule the lossy executor queries per (round, edge):
//
//   - per-link stochastic packet loss, either uniform, from an explicit
//     per-edge table, or derived from link distance via
//     radio.LossForDistance (the gray-zone model);
//   - transient link outages: a physical link is down for a configured
//     window of rounds and every transmission in the window is lost;
//   - permanent node crashes: from its crash round on, a node neither
//     transmits, receives, nor samples;
//   - battery depletions: like a crash, but terminal — a scheduled Revive
//     never resurrects a node whose battery ran out.
//
// For the event-driven asynchronous executor the injector additionally
// models the timing dimensions of a real channel:
//
//   - per-copy propagation latency: a base delay plus a uniform jitter
//     draw, independently per transmission attempt and copy;
//   - duplication: a delivered attempt arrives twice, the duplicate with
//     its own (usually later) latency draw;
//   - reordering: a delivered copy is held back by an extra delay with
//     some probability, landing behind later transmissions on the link.
//
// Every stochastic draw is a pure function of (seed, round, edge, attempt)
// — plus the copy index and a purpose salt for the timing draws — so
// outcomes are reproducible regardless of query order and identical
// across re-runs — the property the self-healing soak tests rely on.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

// link is an undirected physical link key (normalized endpoint order):
// faults on a link affect both directed plan edges over it.
type link struct {
	a, b graph.NodeID
}

func linkOf(e routing.Edge) link {
	if e.From <= e.To {
		return link{e.From, e.To}
	}
	return link{e.To, e.From}
}

// Outage takes a physical link down for the half-open round window
// [Start, Start+Rounds).
type Outage struct {
	Start  int
	Rounds int
}

// Partition is a correlated outage of a whole link cut-set, expressed as a
// node bipartition: for rounds [Start, Start+Rounds) every physical link
// with exactly one endpoint in Side is down, severing Side from the rest
// of the network while leaving links internal to either side untouched.
type Partition struct {
	Side   []graph.NodeID // one side of the bipartition, ascending
	Start  int
	Rounds int

	side map[graph.NodeID]bool
}

// Active reports whether the partition severs the network in round r.
func (p *Partition) Active(r int) bool { return r >= p.Start && r < p.Start+p.Rounds }

// Cuts reports whether the partition severs the physical link under e
// (exactly one endpoint inside Side) in round r.
func (p *Partition) Cuts(r int, e routing.Edge) bool {
	return p.Active(r) && p.side[e.From] != p.side[e.To]
}

// Injector is a fault schedule. The zero value injects nothing; configure
// it with the With/Add/Crash methods (all return the injector for
// chaining) and hand it to the lossy executor, which consults it through
// the Deliver/NodeDead schedule interface.
type Injector struct {
	seed       int64
	loss       float64 // WithUniformLoss argument, unclamped for Validate
	outages    map[link][]Outage
	crashes    map[graph.NodeID]int
	revives    map[graph.NodeID]int
	depletions map[graph.NodeID]int
	partitions []Partition
	byz        map[graph.NodeID][]byzWindow

	baseMS    float64
	jitterMS  float64
	dupProb   float64
	reordProb float64
	reordMS   float64

	collide     bool
	captureProb float64
}

// New returns an empty injector whose stochastic draws derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:       seed,
		outages:    make(map[link][]Outage),
		crashes:    make(map[graph.NodeID]int),
		revives:    make(map[graph.NodeID]int),
		depletions: make(map[graph.NodeID]int),
	}
}

// WithUniformLoss makes every link lose packets independently with
// probability p in [0, 1). Validate rejects an out-of-range p; LinkLoss
// clamps it for callers that skip Validate, rather than silently making
// Deliver always or never succeed.
func (in *Injector) WithUniformLoss(p float64) *Injector {
	in.loss = p
	return in
}

// WithJitter installs the per-copy latency model: every delivered copy
// takes baseMS plus an independent uniform draw in [0, jitterMS) to cross
// its link. Both must be non-negative; the zero model is instantaneous
// (the synchronous executors' implicit assumption).
func (in *Injector) WithJitter(baseMS, jitterMS float64) *Injector {
	in.baseMS = baseMS
	in.jitterMS = jitterMS
	return in
}

// WithDuplication makes every delivered attempt arrive twice with
// probability p in [0, 1): the duplicate copy takes an independent latency
// draw, so it typically lands later — and possibly out of order.
func (in *Injector) WithDuplication(p float64) *Injector {
	in.dupProb = p
	return in
}

// WithReorder holds a delivered copy back by extraMS with probability p in
// [0, 1), pushing it behind later transmissions on the same link — the
// explicit reordering knob on top of whatever jitter already produces.
func (in *Injector) WithReorder(p float64, extraMS float64) *Injector {
	in.reordProb = p
	in.reordMS = extraMS
	return in
}

// AddOutage schedules a transient outage of the physical link under e
// (both directions) for rounds [start, start+rounds).
func (in *Injector) AddOutage(e routing.Edge, start, rounds int) *Injector {
	l := linkOf(e)
	in.outages[l] = append(in.outages[l], Outage{Start: start, Rounds: rounds})
	return in
}

// AddPartition schedules a correlated cut-set outage for rounds
// [start, start+rounds): every physical link with exactly one endpoint in
// side is down for the window, severing the side from the rest of the
// network in one correlated event rather than as independent link faults.
func (in *Injector) AddPartition(side []graph.NodeID, start, rounds int) *Injector {
	p := Partition{
		Side:   append([]graph.NodeID(nil), side...),
		Start:  start,
		Rounds: rounds,
		side:   make(map[graph.NodeID]bool, len(side)),
	}
	sort.Slice(p.Side, func(i, j int) bool { return p.Side[i] < p.Side[j] })
	for _, n := range p.Side {
		p.side[n] = true
	}
	in.partitions = append(in.partitions, p)
	return in
}

// Crash schedules node n to fail permanently at the given round (or until
// a scheduled Revive, which makes the crash transient).
func (in *Injector) Crash(n graph.NodeID, round int) *Injector {
	if prev, ok := in.crashes[n]; !ok || round < prev {
		in.crashes[n] = round
	}
	return in
}

// Revive schedules crashed node n to come back at the given round, turning
// its crash into a transient outage: the node is dead for rounds
// [crash, revive) and alive again from the revive round on. Reviving a
// node that was never crashed is rejected by Validate.
func (in *Injector) Revive(n graph.NodeID, round int) *Injector {
	in.revives[n] = round
	return in
}

// Deplete schedules node n's battery to hit zero at the given round: from
// then on the node is permanently silent, exactly like a crash except that
// no Revive can bring it back — an exhausted battery does not recharge.
// Use it to inject the depletion failure mode deterministically without a
// full energy ledger; runtimes with a live sim.Battery get the same
// signature organically.
func (in *Injector) Deplete(n graph.NodeID, round int) *Injector {
	if prev, ok := in.depletions[n]; !ok || round < prev {
		in.depletions[n] = round
	}
	return in
}

// Validate rejects schedules the executor cannot price.
func (in *Injector) Validate() error {
	for n, r := range in.crashes {
		if r < 0 {
			return fmt.Errorf("chaos: node %d crash at negative round %d", n, r)
		}
	}
	for n, r := range in.depletions {
		if r < 0 {
			return fmt.Errorf("chaos: node %d depletion at negative round %d", n, r)
		}
	}
	for n, r := range in.revives {
		c, ok := in.crashes[n]
		if !ok {
			return fmt.Errorf("chaos: node %d revived at round %d but never crashed", n, r)
		}
		if r <= c {
			return fmt.Errorf("chaos: node %d revive round %d not after crash round %d", n, r, c)
		}
	}
	for l, outs := range in.outages {
		for _, o := range outs {
			if o.Start < 0 || o.Rounds <= 0 {
				return fmt.Errorf("chaos: link %d—%d outage [%d,+%d) invalid", l.a, l.b, o.Start, o.Rounds)
			}
		}
	}
	for _, p := range in.partitions {
		if len(p.Side) == 0 {
			return fmt.Errorf("chaos: partition [%d,+%d) has an empty side", p.Start, p.Rounds)
		}
		if p.Start < 0 || p.Rounds <= 0 {
			return fmt.Errorf("chaos: partition [%d,+%d) invalid", p.Start, p.Rounds)
		}
	}
	if math.IsNaN(in.loss) || in.loss < 0 || in.loss >= 1 {
		return fmt.Errorf("chaos: uniform loss probability %v outside [0,1)", in.loss)
	}
	if in.baseMS < 0 || in.jitterMS < 0 {
		return fmt.Errorf("chaos: negative latency model (base=%v, jitter=%v)", in.baseMS, in.jitterMS)
	}
	if in.dupProb < 0 || in.dupProb >= 1 {
		return fmt.Errorf("chaos: duplication probability %v outside [0,1)", in.dupProb)
	}
	if in.reordProb < 0 || in.reordProb >= 1 {
		return fmt.Errorf("chaos: reorder probability %v outside [0,1)", in.reordProb)
	}
	if in.reordMS < 0 {
		return fmt.Errorf("chaos: negative reorder delay %v", in.reordMS)
	}
	if err := in.validateCollisions(); err != nil {
		return err
	}
	return in.validateByzantine()
}

// NodeDead reports whether n is down in round r: crashed (from its crash
// round until an optional revive) or battery-depleted (from its depletion
// round on, permanently — revives never resurrect an exhausted node). A
// dead node neither transmits, receives, nor samples.
func (in *Injector) NodeDead(round int, n graph.NodeID) bool {
	if d, ok := in.depletions[n]; ok && round >= d {
		return true
	}
	c, ok := in.crashes[n]
	if !ok || round < c {
		return false
	}
	if rv, ok := in.revives[n]; ok && round >= rv {
		return false
	}
	return true
}

// LinkDown reports whether the physical link under e is inside a scheduled
// outage window — individual or partition cut-set — in the given round.
func (in *Injector) LinkDown(round int, e routing.Edge) bool {
	for _, o := range in.outages[linkOf(e)] {
		if round >= o.Start && round < o.Start+o.Rounds {
			return true
		}
	}
	for i := range in.partitions {
		if in.partitions[i].Cuts(round, e) {
			return true
		}
	}
	return false
}

// LinkLoss returns the stochastic loss probability of every link, clamped
// into [0, 1): NaN or a negative value loses nothing, and one >= 1 is
// pinned just below certain loss so ARQ retries still draw independently
// instead of silently never delivering.
func (in *Injector) LinkLoss() float64 {
	p := in.loss
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	if p >= 1 {
		return math.Nextafter(1, 0)
	}
	return p
}

// Deliver reports whether the attempt-th transmission of the given round
// on e is heard by e.To. Outages drop deterministically; otherwise the
// configured loss probability is applied with a draw that depends only on
// (seed, round, edge, attempt). Endpoint liveness is not checked here —
// the executor gates on NodeDead separately, because a transmission
// toward a dead receiver still costs the sender energy.
func (in *Injector) Deliver(round int, e routing.Edge, attempt int) bool {
	if in.LinkDown(round, e) {
		return false
	}
	p := in.LinkLoss()
	if p <= 0 {
		return true
	}
	return draw01(in.seed, round, e, attempt) >= p
}

// PlanEpoch and NodeEpoch report epoch 0 everywhere: an injector never
// reconfigures, so it fences nothing (sessions overlay their own epochs).
func (in *Injector) PlanEpoch() uint32             { return 0 }
func (in *Injector) NodeEpoch(graph.NodeID) uint32 { return 0 }

// Purpose salts keep the timing draws decorrelated from the delivery draw
// and from each other: a lossy attempt must not systematically be a slow
// or duplicated one.
const (
	saltLatency uint64 = 0x5851f42d4c957f2d
	saltDup     uint64 = 0x2545f4914f6cdd1d
	saltReorder uint64 = 0x9fb21c651e98df25
)

// LatencyMS reports the one-way propagation delay, in milliseconds, of
// copy c of the attempt-th transmission of the round on e. Copy 0 is the
// attempt itself; higher copies are the injector's duplicates (and, by
// the async executor's convention, the matching acknowledgements). The
// draw is a pure function of (seed, round, edge, attempt, copy).
func (in *Injector) LatencyMS(round int, e routing.Edge, attempt, c int) float64 {
	l := in.baseMS
	if in.jitterMS > 0 {
		l += in.jitterMS * drawSalted(in.seed, round, e, attempt, saltLatency+uint64(c)*2654435761)
	}
	if in.reordProb > 0 && drawSalted(in.seed, round, e, attempt, saltReorder+uint64(c)*2654435761) < in.reordProb {
		l += in.reordMS
	}
	return l
}

// Duplicates reports how many extra copies of the attempt-th transmission
// of the round on e the receiver hears beyond the first (0 or 1); it only
// applies to attempts the Deliver schedule lets through.
func (in *Injector) Duplicates(round int, e routing.Edge, attempt int) int {
	if in.dupProb > 0 && drawSalted(in.seed, round, e, attempt, saltDup) < in.dupProb {
		return 1
	}
	return 0
}

// GrowSide picks a connected side of the requested size for a partition:
// a deterministic BFS from seed over g, expanding in ascending-ID order.
// It errors if seed is out of range or the component is smaller than size.
func GrowSide(g *graph.Undirected, seed graph.NodeID, size int) ([]graph.NodeID, error) {
	if int(seed) < 0 || int(seed) >= g.Len() {
		return nil, fmt.Errorf("chaos: seed node %d out of range", seed)
	}
	if size <= 0 {
		return nil, fmt.Errorf("chaos: side size %d not positive", size)
	}
	seen := map[graph.NodeID]bool{seed: true}
	side := []graph.NodeID{seed}
	for q := []graph.NodeID{seed}; len(q) > 0 && len(side) < size; {
		n := q[0]
		q = q[1:]
		for _, nb := range g.Neighbors(n) {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			side = append(side, nb)
			q = append(q, nb)
			if len(side) == size {
				break
			}
		}
	}
	if len(side) < size {
		return nil, fmt.Errorf("chaos: component of %d holds only %d nodes, need %d", seed, len(side), size)
	}
	sort.Slice(side, func(i, j int) bool { return side[i] < side[j] })
	return side, nil
}

// draw01 hashes (seed, round, edge, attempt) to a uniform float64 in
// [0, 1) using splitmix64 finalization — stateless, so outcomes cannot
// depend on the order in which the executor asks.
func draw01(seed int64, round int, e routing.Edge, attempt int) float64 {
	x := uint64(seed)
	x = mix(x ^ uint64(round)*0x9e3779b97f4a7c15)
	x = mix(x ^ uint64(e.From)*0xbf58476d1ce4e5b9)
	x = mix(x ^ uint64(e.To)*0x94d049bb133111eb)
	x = mix(x ^ uint64(attempt)*0xd6e8feb86659fd93)
	return float64(x>>11) / (1 << 53)
}

// drawSalted is draw01 with a purpose salt mixed in first. The unsalted
// delivery draw keeps its historical sequence (loss patterns under a given
// seed are stable across releases); timing draws hash through a different
// sequence entirely.
func drawSalted(seed int64, round int, e routing.Edge, attempt int, salt uint64) float64 {
	x := mix(uint64(seed) ^ salt)
	x = mix(x ^ uint64(round)*0x9e3779b97f4a7c15)
	x = mix(x ^ uint64(e.From)*0xbf58476d1ce4e5b9)
	x = mix(x ^ uint64(e.To)*0x94d049bb133111eb)
	x = mix(x ^ uint64(attempt)*0xd6e8feb86659fd93)
	return float64(x>>11) / (1 << 53)
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

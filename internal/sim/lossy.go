package sim

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
)

// Faults is the one fault view every faulty-path executor queries while
// a round runs: crashes and delivery, async timing, slot contention,
// Byzantine corruption and the plan-epoch fence. chaos.Injector
// implements it, and sessions wrap it with their epoch view. Every method
// must be a pure function of its arguments so repeated rounds are
// reproducible. Schedules that inject only some dimensions embed NoFaults
// for the rest.
type Faults interface {
	// NodeDead reports whether n has permanently crashed by the given
	// round. A dead node neither transmits, receives, nor samples.
	NodeDead(round int, n graph.NodeID) bool
	// Deliver reports whether the attempt-th transmission of the round on
	// e is heard by e.To (liveness of the endpoints is gated separately).
	Deliver(round int, e routing.Edge, attempt int) bool

	// LatencyMS is the one-way propagation delay of copy c of the
	// attempt-th transmission of the round on e, in milliseconds (async
	// executor). By convention data copy i queries c=2i and its
	// acknowledgement c=2i+1.
	LatencyMS(round int, e routing.Edge, attempt, c int) float64
	// Duplicates is how many extra copies of a delivered attempt the
	// receiver hears beyond the first (async executor).
	Duplicates(round int, e routing.Edge, attempt int) int

	// CollisionsEnabled reports whether the slot-contention model is on;
	// when false the executors bypass the oracle and never consult the
	// other two collision methods.
	CollisionsEnabled() bool
	// CaptureWins reports whether the attempt-th frame of the round on e
	// survives a collision it is part of.
	CaptureWins(round int, e routing.Edge, attempt int) bool
	// BackoffSlots draws a uniform backoff in [0, window) slots.
	BackoffSlots(round int, e routing.Edge, attempt, window int) int

	// CorruptReading is the Byzantine corruption applied to n's reading
	// at the pre-aggregation boundary, the only corruption path: the lie
	// enters once, at the source, and relays stay honest. Honest nodes
	// return v unchanged.
	CorruptReading(round int, n graph.NodeID, v float64) float64

	// PlanEpoch is the epoch of the plan the engine is executing;
	// NodeEpoch is the epoch of the routing tables installed at n. A frame
	// crossing an edge whose endpoints do not both run PlanEpoch is
	// transmitted and heard — both radios pay — but the receiver discards
	// it instead of merging (counted in EpochDropped), so a node on a
	// stale plan degrades coverage rather than corrupting aggregates.
	// Schedules without reconfiguration report 0 everywhere.
	PlanEpoch() uint32
	NodeEpoch(n graph.NodeID) uint32
}

// NoFaults is the zero schedule: nobody dies, every transmission arrives
// instantly and once, nothing collides or lies, and every node runs epoch
// 0. Embed it to implement only the dimensions a schedule injects.
type NoFaults struct{}

func (NoFaults) NodeDead(int, graph.NodeID) bool                         { return false }
func (NoFaults) Deliver(int, routing.Edge, int) bool                     { return true }
func (NoFaults) LatencyMS(int, routing.Edge, int, int) float64           { return 0 }
func (NoFaults) Duplicates(int, routing.Edge, int) int                   { return 0 }
func (NoFaults) CollisionsEnabled() bool                                 { return false }
func (NoFaults) CaptureWins(int, routing.Edge, int) bool                 { return false }
func (NoFaults) BackoffSlots(int, routing.Edge, int, int) int            { return 0 }
func (NoFaults) CorruptReading(_ int, _ graph.NodeID, v float64) float64 { return v }
func (NoFaults) PlanEpoch() uint32                                       { return 0 }
func (NoFaults) NodeEpoch(graph.NodeID) uint32                           { return 0 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DeliveryReport describes how well one destination was served by a lossy
// round: exactly (fresh), over partial source coverage (stale), or not at
// all (starved).
type DeliveryReport struct {
	// Dest is the destination node.
	Dest graph.NodeID
	// Fresh is true when every source of f_d reached the destination and
	// the reported value is exact.
	Fresh bool
	// Covered lists the sources whose readings made it into the value,
	// ascending. Missing lists the rest.
	Covered []graph.NodeID
	Missing []graph.NodeID
	// Starved is true when no source reached the destination at all (no
	// value was produced this round).
	Starved bool
	// DestDead is true when the destination itself has crashed; such a
	// destination is also reported as starved.
	DestDead bool

	// The remaining fields are filled by the asynchronous executor (and,
	// for AgeRounds, by sessions that keep a last-known-value cache); the
	// synchronous executors leave them zero.

	// ClosedAtMS is the simulated time at which the destination's round
	// closed: when its last input resolved, or at the deadline.
	ClosedAtMS float64
	// DeadlineHit is true when the round's deadline forced the close while
	// inputs were still unresolved — the graceful-degradation path. A
	// deadline-hit destination is never fresh.
	DeadlineHit bool
	// AgeRounds is how many rounds have passed since this destination was
	// last served fresh (0 when fresh this round).
	AgeRounds int
	// LastKnown is the most recent exact value the last-known-value cache
	// holds for this destination; HasLastKnown guards it. A starved or
	// stale destination's consumer can fall back on it, aged by AgeRounds.
	LastKnown    float64
	HasLastKnown bool
}

// Validate checks the report's internal invariants: Covered and Missing
// are ascending and disjoint, the freshness flags are mutually consistent,
// and the staleness fields are sane. Executors must only ever produce
// reports that pass; tests assert it on every report they see.
func (r *DeliveryReport) Validate() error {
	for i := 1; i < len(r.Covered); i++ {
		if r.Covered[i-1] >= r.Covered[i] {
			t := "unsorted"
			if r.Covered[i-1] == r.Covered[i] {
				t = "duplicate"
			}
			return fmt.Errorf("sim: report for %d: %s Covered at %d", r.Dest, t, i)
		}
	}
	for i := 1; i < len(r.Missing); i++ {
		if r.Missing[i-1] >= r.Missing[i] {
			t := "unsorted"
			if r.Missing[i-1] == r.Missing[i] {
				t = "duplicate"
			}
			return fmt.Errorf("sim: report for %d: %s Missing at %d", r.Dest, t, i)
		}
	}
	miss := make(map[graph.NodeID]bool, len(r.Missing))
	for _, s := range r.Missing {
		miss[s] = true
	}
	for _, s := range r.Covered {
		if miss[s] {
			return fmt.Errorf("sim: report for %d: source %d both covered and missing", r.Dest, s)
		}
	}
	switch {
	case r.Fresh && r.Starved:
		return fmt.Errorf("sim: report for %d both fresh and starved", r.Dest)
	case r.Fresh && len(r.Missing) > 0:
		return fmt.Errorf("sim: fresh report for %d misses %d sources", r.Dest, len(r.Missing))
	case r.Starved && len(r.Covered) > 0:
		return fmt.Errorf("sim: starved report for %d covers %d sources", r.Dest, len(r.Covered))
	case r.DestDead && !r.Starved:
		return fmt.Errorf("sim: dead destination %d not starved", r.Dest)
	case r.DeadlineHit && r.Fresh:
		return fmt.Errorf("sim: report for %d both deadline-hit and fresh", r.Dest)
	case r.AgeRounds < 0:
		return fmt.Errorf("sim: report for %d has negative staleness age %d", r.Dest, r.AgeRounds)
	case r.Fresh && r.AgeRounds != 0:
		return fmt.Errorf("sim: fresh report for %d aged %d rounds", r.Dest, r.AgeRounds)
	case r.ClosedAtMS < 0:
		return fmt.Errorf("sim: report for %d closed at negative time %v", r.Dest, r.ClosedAtMS)
	}
	return nil
}

// carriedRaw and carriedRec are a message's payload snapshot: the raw
// values and partial records actually available at the sender when the
// message (first) transmits. Both lossy executors share them; slot is the
// compiled slot the payload lands in at the receiver, and cov the covered
// sources as a dense bitset over the compiled source order.
type carriedRaw struct {
	slot int32
	val  float64
}

type carriedRec struct {
	slot int32
	rec  agg.Record
	cov  []uint64
}

// EdgeOutcome is the observable fate of one planned message: how many
// times its sender transmitted, whether it ultimately arrived, and the
// payload it carried. Attempts == 0 means the sender never transmitted at
// all — under the keep-alive convention only a dead sender is silent, so
// silence implicates the tail while exhausted retries implicate the head.
type EdgeOutcome struct {
	Edge      routing.Edge
	Attempts  int
	Delivered bool
	BodyBytes int
}

// LossyResult reports one round executed under a fault schedule.
type LossyResult struct {
	// Values holds the computed aggregate of every destination that
	// received at least one source (exact only where Reports[d].Fresh).
	Values map[graph.NodeID]float64
	// Reports holds the per-destination delivery report.
	Reports map[graph.NodeID]*DeliveryReport
	// Outcomes lists every planned message's fate, in transmission order.
	Outcomes []EdgeOutcome
	// EnergyJ is the round's total radio energy, including every failed
	// retransmission.
	EnergyJ float64
	// PerNodeJ is each node's share (TX at senders per attempt, RX at the
	// receiver of the successful attempt). Treat as read-only.
	PerNodeJ map[graph.NodeID]float64
	// Messages is the number of planned messages; Transmissions counts
	// physical attempts (≥ delivered messages), Retries the extra
	// attempts beyond the first, and Dropped the planned messages that
	// never arrived.
	Messages      int
	Transmissions int
	Retries       int
	Dropped       int
	// EpochDropped counts heard transmissions the receiver discarded
	// because the frame's plan epoch mismatched its installed table (each
	// also leaves its message in Dropped if no attempt ever passes).
	EpochDropped int
	// Collisions counts transmission attempts destroyed by slot
	// contention (collision model only): the wreck cost the sender TX and
	// a live receiver RX, but nothing was merged or acknowledged.
	Collisions int
}

// RunLossy executes one round in which messages actually drop: each
// planned message is transmitted under stop-and-wait ARQ with at most
// maxRetries retransmissions, every attempt is charged to the sender, and
// only delivered payloads propagate. A node with nothing to forward still
// sends its planned message empty (a header-only keep-alive), so the only
// silent senders are dead ones — the property failure detectors rely on.
// Partial aggregates cover whatever sources arrived; the per-destination
// reports say which values are exact, partial, or missing.
//
// With a nil or fault-free schedule the round is byte-identical to Run:
// same values, same total and per-node energy.
//
// With a battery ledger attached (Options.Battery) every attempt debits
// the sender's TX and every heard frame the receiver's RX. A node that
// cannot afford a debit browns out mid-round: a browned-out sender
// abandons its remaining retries (silence — the same signature as a
// crash, which is what failure detectors key on), and a browned-out
// receiver stops hearing. Nodes already depleted at round start are
// gated exactly like dead ones.
func (e *Engine) RunLossy(round int, readings map[graph.NodeID]float64, faults Faults, maxRetries int) (*LossyResult, error) {
	if maxRetries < 0 {
		return nil, fmt.Errorf("sim: negative retry budget %d", maxRetries)
	}
	res := &LossyResult{}
	r, err := e.beginRound(round, readings, faults, maxRetries, res)
	if err != nil {
		return nil, err
	}
	defer r.end()
	c, st, bat := e.prog, r.st, e.battery

	for mi, msg := range e.messages {
		edge := e.units[msg[0]].Edge
		out := EdgeOutcome{Edge: edge}
		if r.down(edge.From) {
			// Dead or depleted sender: silence, no energy anywhere.
			res.Dropped++
			res.Outcomes = append(res.Outcomes, out)
			continue
		}
		raws, recs, body := r.snapshot(mi)
		out.BodyBytes = body

		// Stop-and-wait: transmit until delivered or the budget runs out;
		// under the collision model, replay the oracle's resolved attempts
		// one-for-one instead. A lost attempt costs the sender TX; the
		// receiver pays RX only for the attempts it actually hears, a
		// collision wreck included. An epoch-fenced edge never delivers:
		// the receiver hears the frame, pays RX, and discards it without
		// acknowledging, so the sender burns its whole budget. With a
		// ledger, each attempt debits the sender up front (a sender that
		// cannot pay falls silent mid-window) and each heard frame debits
		// the receiver (a receiver that cannot pay goes deaf) — the gates
		// the slot model cannot see.
		txJ := e.Radio.TxJoules(body)
		rxJ := e.Radio.RxJoules(body)
		recvDead := r.down(edge.To)
		eid := c.msgEdge[mi]
		fenced := !st.edgeOK[eid]
		heard := 0
		wrecked := 0
		tries := maxRetries + 1
		if r.cp != nil {
			tries = len(r.cp.tries[mi])
		}
		for try := 0; try < tries && !out.Delivered; try++ {
			if bat != nil && !bat.Spend(round, edge.From, txJ) {
				break // sender browned out mid-ARQ: remaining retries abandoned
			}
			out.Attempts++
			r.attempted(out.Attempts)
			seq := int(st.attempt[eid])
			st.attempt[eid]++
			oc := r.channel(mi, try, seq, edge, recvDead)
			if oc == coCollided {
				res.Collisions++
			}
			if oc == coLost || recvDead {
				continue
			}
			if bat != nil && !bat.Spend(round, edge.To, rxJ) {
				recvDead = true // receiver browned out: frame unheard
				continue
			}
			switch {
			case oc == coCollided:
				wrecked++ // heard, paid for, destroyed by the checksum
			case fenced:
				heard++
			default:
				out.Delivered = true
			}
		}
		if out.Delivered && out.Attempts == 1 {
			res.EnergyJ += e.Radio.UnicastJoules(body)
		} else {
			res.EnergyJ += float64(out.Attempts) * txJ
			rx := wrecked
			if out.Delivered {
				rx++
			} else {
				rx += heard
			}
			res.EnergyJ += float64(rx) * rxJ
		}
		res.PerNodeJ[edge.From] += float64(out.Attempts) * txJ
		if rx := wrecked + heard + b2i(out.Delivered); rx > 0 {
			res.PerNodeJ[edge.To] += float64(rx) * rxJ
		}
		res.EpochDropped += heard

		if out.Delivered {
			r.deliver(mi, raws, recs)
		} else {
			res.Dropped++
		}
		res.Outcomes = append(res.Outcomes, out)
	}

	for fi := range c.finals {
		r.report(fi, r.down(c.finals[fi].dest))
	}
	return res, nil
}

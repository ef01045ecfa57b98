package sim

import (
	"fmt"

	"m2m/internal/routing"
	"m2m/internal/schedule"
)

// This file is the contention-aware channel: a slotted collision model
// (protocol interference, no collision detection — after Chang & Guan)
// and the transmission disciplines that ride it out. The centerpiece is
// the collision oracle: a per-round, purely deterministic slot-by-slot
// resolution of every planned message's fate — delivered, collided, or
// lost, per attempt — that BOTH the synchronous ARQ executor and the
// event-driven executor replay instead of consulting the channel
// directly. One resolution, two executors: the same seed yields
// identical collision outcomes everywhere by construction.
//
// The slot model: a message becomes eligible when its wait-for
// dependencies (Theorem 2's DAG, at message granularity) have resolved.
// Each sender's radio transmits at most one frame per slot (same-sender
// traffic serializes FIFO in planned order). Two frames in one slot
// destroy each other when they conflict under the protocol interference
// model — shared receiver, or either receiver in range of the other
// sender — unless a seeded capture draw rescues one. A destroyed frame
// still costs the sender TX and the receiver RX (the wreck is heard, then
// fails its checksum); a plain loss costs TX only.
//
// Transmission disciplines (TxMode):
//
//   - TxUnscheduled: send as soon as dependencies allow, retry in the
//     very next slot — lockstep retries re-collide, the failure mode the
//     other two modes exist to fix;
//   - TxBackoff: as above, but retries wait a seeded random binary
//     exponential backoff, de-synchronizing contending senders;
//   - TxTDMA: every attempt fires in the message's own slot of a
//     validated internal/schedule frame (conflict-free by construction),
//     the first in the first copy of the frame its dependencies allow, a
//     retry in the next copy. No TDMA round collides, lossy or not, and
//     a fault-free one is byte-identical to Engine.Run.
//
// Known approximation: the oracle gates senders and receivers on the
// fault schedule's NodeDead at round start, not on mid-round battery
// brown-outs — those are applied by each executor while replaying (a
// browned-out sender abandons its remaining oracle attempts, exactly as
// it abandons ARQ retries today).

// TxMode selects the engine's transmission discipline under the
// collision channel. It has no effect unless the fault schedule enables
// collisions (chaos.WithCollisions).
type TxMode int

const (
	// TxUnscheduled sends ASAP and retries in the next slot.
	TxUnscheduled TxMode = iota
	// TxBackoff sends ASAP and retries after a seeded random binary
	// exponential backoff.
	TxBackoff
	// TxTDMA sends every attempt in the message's own slot of the loaded
	// schedule frame, retries in later copies of the frame. Requires
	// EnableTDMA or LoadFrame.
	TxTDMA
)

func (m TxMode) String() string {
	switch m {
	case TxUnscheduled:
		return "unscheduled"
	case TxBackoff:
		return "backoff"
	case TxTDMA:
		return "tdma"
	default:
		return fmt.Sprintf("txmode(%d)", int(m))
	}
}

// contention is the static conflict topology of the engine's message
// layout: which planned messages cannot share a slot, plus the schedule
// form of the layout. Built lazily once per engine; immutable after.
type contention struct {
	msgs     []schedule.Message
	conflict [][]int // conflict[mi] = message indices mi interferes with, ascending
	maxBody  int     // largest planned message body in bytes (slot sizing)
}

// contentionTopo builds (once) the conflict adjacency over the message
// layout. Unavailable in broadcast mode, like MessageGraph.
func (e *Engine) contentionTopo() (*contention, error) {
	e.contOnce.Do(func() {
		infos, err := e.MessageGraph()
		if err != nil {
			e.contErr = err
			return
		}
		ct := &contention{
			msgs:     make([]schedule.Message, len(infos)),
			conflict: make([][]int, len(infos)),
		}
		for i, inf := range infos {
			ct.msgs[i] = schedule.Message{From: inf.From, To: inf.To, Deps: inf.Deps}
		}
		net := e.Plan.Inst.Net
		for i := range ct.msgs {
			for j := i + 1; j < len(ct.msgs); j++ {
				if schedule.Conflicts(net, ct.msgs[i], ct.msgs[j]) {
					ct.conflict[i] = append(ct.conflict[i], j)
					ct.conflict[j] = append(ct.conflict[j], i)
				}
			}
		}
		for _, msg := range e.messages {
			body := 0
			for _, ui := range msg {
				body += int(e.prog.unitBytes[ui])
			}
			if body > ct.maxBody {
				ct.maxBody = body
			}
		}
		e.cont = ct
	})
	return e.cont, e.contErr
}

// BuildSchedule derives the TDMA frame for the engine's message layout:
// the wait-for DAG supplies the precedence edges and the greedy colorer
// packs non-conflicting messages into shared slots.
func (e *Engine) BuildSchedule() (*schedule.Schedule, []schedule.Message, error) {
	ct, err := e.contentionTopo()
	if err != nil {
		return nil, nil, err
	}
	s, err := schedule.Build(e.Plan.Inst.Net, ct.msgs)
	if err != nil {
		return nil, nil, err
	}
	return s, ct.msgs, nil
}

// EnableTDMA builds, validates, and installs the engine's own TDMA frame
// and switches the transmission discipline to TxTDMA. Not safe to call
// concurrently with running rounds.
func (e *Engine) EnableTDMA() error {
	s, msgs, err := e.BuildSchedule()
	if err != nil {
		return err
	}
	if err := s.Validate(e.Plan.Inst.Net, msgs); err != nil {
		return err
	}
	e.txSched = s
	e.txMode = TxTDMA
	return nil
}

// LoadFrame installs a TDMA frame from a bare slot assignment — the form
// a frame arrives in off the wire — validating it against the engine's
// message graph before anything executes from it, and switches to
// TxTDMA. Not safe to call concurrently with running rounds.
func (e *Engine) LoadFrame(slotOf []int) error {
	ct, err := e.contentionTopo()
	if err != nil {
		return err
	}
	s, err := schedule.FromSlotOf(slotOf)
	if err != nil {
		return err
	}
	if err := s.Validate(e.Plan.Inst.Net, ct.msgs); err != nil {
		return err
	}
	e.txSched = s
	e.txMode = TxTDMA
	return nil
}

// SetTxMode selects the transmission discipline. TxTDMA requires a frame
// installed by EnableTDMA or LoadFrame first. Not safe to call
// concurrently with running rounds.
func (e *Engine) SetTxMode(m TxMode) error {
	switch m {
	case TxUnscheduled, TxBackoff:
		e.txMode = m
	case TxTDMA:
		if e.txSched == nil {
			return fmt.Errorf("sim: TxTDMA needs a schedule frame (EnableTDMA or LoadFrame first)")
		}
		e.txMode = m
	default:
		return fmt.Errorf("sim: unknown tx mode %d", int(m))
	}
	return nil
}

// Frame returns the installed TDMA slot assignment (nil when none).
func (e *Engine) Frame() []int {
	if e.txSched == nil {
		return nil
	}
	return append([]int(nil), e.txSched.SlotOf...)
}

// Per-attempt channel outcomes the oracle hands to the executors.
const (
	coLost      byte = iota // nothing heard: sender TX only
	coCollided              // wreck heard: sender TX + receiver RX, no ack
	coDelivered             // frame heard intact (the fence may still discard it)
)

// collisionPlan is one round's resolved contention: for every planned
// message, the outcome of each transmission attempt the slot model
// simulated, in order. Executors replay these outcomes one-for-one with
// their own attempts instead of consulting Deliver themselves.
type collisionPlan struct {
	tries   [][]byte
	slotOf  []int // TxTDMA first-attempt slots (nil otherwise)
	maxBody int
	mode    TxMode
}

// collisionScratch is the oracle's pooled per-round state. It is sized on
// a state's first collision round and reused after.
type collisionScratch struct {
	plan       collisionPlan
	triesBuf   []byte  // message mi's attempts live in [mi·(R+1), (mi+1)·(R+1))
	waiting    []int32 // per message: unresolved dependencies
	recvDead   []bool  // per message: receiver dead at round start
	inSlot     []bool  // per message: transmitting in the current slot
	txs        []int   // the current slot's transmitting messages
	attemptCtr []int32 // per message edge: Deliver draws so far this round
	sender     []int64 // per node: stamp of the last slot it transmitted in
	stamp      int64   // increases once per slot, never reset
}

// channel is the fate of message mi's try-th attempt, drawn as the
// seq-th transmission of the round on its edge. Under the collision model
// it is the oracle's resolved outcome; attempts past the oracle's horizon
// (an event-driven executor's spurious retransmissions of
// already-delivered data) report coLost: the frame vanishes into
// contention noise, which the dedup window would have discarded anyway.
// Otherwise it is a Deliver draw, and a receiver that is down hears
// nothing.
func (r *faultRound) channel(mi, try, seq int, edge routing.Edge, recvDown bool) byte {
	if p := r.cp; p != nil {
		if try < len(p.tries[mi]) {
			return p.tries[mi][try]
		}
		return coLost
	}
	if !recvDown && r.faults.Deliver(r.round, edge, seq) {
		return coDelivered
	}
	return coLost
}

// attemptSalt decorrelates the per-(message, try) capture and backoff
// draws: message indices share edges (and an edge its draw inputs), so
// the attempt axis carries the message identity too.
func attemptSalt(mi, try int) int {
	if try > 63 {
		try = 63
	}
	return mi*64 + try
}

// collisionPlanFor resolves the round's contention into st's pooled
// plan, valid until st returns to the pool, or returns nil when the
// fault schedule does not enable collisions. st.edgeOK is the epoch
// fence: a fenced edge's frames are heard but never acknowledged, so its
// sender burns the whole retry budget.
func (e *Engine) collisionPlanFor(round int, faults Faults, maxRetries int, st *lossyState) (*collisionPlan, error) {
	if !faults.CollisionsEnabled() {
		return nil, nil
	}
	ct, err := e.contentionTopo()
	if err != nil {
		return nil, fmt.Errorf("sim: collision model: %w", err)
	}
	if e.txMode == TxTDMA && e.txSched == nil {
		return nil, fmt.Errorf("sim: TxTDMA without a loaded frame")
	}
	topo := e.asyncTopology()
	n := len(e.messages)
	cs := &st.coll
	if len(cs.waiting) != n {
		cs.plan.tries = make([][]byte, n)
		cs.waiting = make([]int32, n)
		cs.recvDead = make([]bool, n)
		cs.inSlot = make([]bool, n)
		cs.attemptCtr = make([]int32, e.prog.nMsgEdges)
		cs.sender = make([]int64, e.Plan.Inst.Net.Len())
	}
	per := maxRetries + 1
	if need := n * per; cap(cs.triesBuf) < need {
		cs.triesBuf = make([]byte, need)
	}
	p := &cs.plan
	p.maxBody, p.mode, p.slotOf = ct.maxBody, e.txMode, nil
	frameLen := 0
	if e.txMode == TxTDMA {
		p.slotOf, frameLen = e.txSched.SlotOf, e.txSched.Len()
	}
	// ownSlot is the first slot at or after s that belongs to mi: under
	// TxTDMA every attempt, first or retry, waits for mi's own slot in
	// the current or a later copy of the frame, so no two conflicting
	// messages ever share a slot; otherwise any slot is mi's.
	ownSlot := func(mi, s int) int {
		if p.slotOf == nil {
			return s
		}
		own := p.slotOf[mi]
		if own >= s {
			return own
		}
		return own + (s-own+frameLen-1)/frameLen*frameLen
	}
	for mi := range p.tries {
		p.tries[mi] = cs.triesBuf[mi*per : mi*per : (mi+1)*per]
		cs.waiting[mi] = int32(len(topo.deps[mi]))
		cs.recvDead[mi] = faults.NodeDead(round, ct.msgs[mi].To)
	}
	clear(cs.attemptCtr)

	// The queue holds every message waiting to transmit, keyed by the
	// next slot it will transmit in, as (t, kind, seq) = (slot, 0,
	// message): it pops one slot's bucket at a time, in planned order.
	// Each waiting message is queued once.
	q := &st.q
	*q = (*q)[:0]
	enqueue := func(mi, slot int) {
		q.push(asyncEvent{t: float64(slot), seq: mi})
	}

	// resolve marks mi settled at the end of slot s: dependents may
	// transmit from s+1 on, in their own slot. A dead sender resolves
	// before slot 0 (s=-1): silence, zero attempts, exactly like the ARQ
	// executor's gate. Each message is readied, and so resolved, exactly
	// once: the scan below readies only messages without dependencies,
	// and resolve readies a dependent when its last dependency resolves.
	var resolve func(mi, s int)
	ready := func(mi, s int) {
		if faults.NodeDead(round, ct.msgs[mi].From) {
			resolve(mi, s)
			return
		}
		enqueue(mi, ownSlot(mi, s+1))
	}
	resolve = func(mi, s int) {
		for _, dm := range topo.dependents[mi] {
			cs.waiting[dm]--
			if cs.waiting[dm] == 0 {
				ready(dm, s)
			}
		}
	}
	for mi := range cs.waiting {
		if len(topo.deps[mi]) == 0 {
			ready(mi, -1)
		}
	}

	for len(*q) > 0 {
		// One frame per sender per slot: the radio serializes its own
		// queue in planned order; deferred frames slip one slot.
		s := int((*q)[0].t)
		cs.stamp++
		txs := cs.txs[:0]
		for len(*q) > 0 && int((*q)[0].t) == s {
			mi := q.pop().seq
			from := ct.msgs[mi].From
			if cs.sender[from] == cs.stamp {
				enqueue(mi, s+1)
				continue
			}
			cs.sender[from] = cs.stamp
			txs = append(txs, mi)
		}
		cs.txs = txs
		for _, mi := range txs {
			cs.inSlot[mi] = true
		}
		for _, mi := range txs {
			edge := routing.Edge{From: ct.msgs[mi].From, To: ct.msgs[mi].To}
			try := len(p.tries[mi])
			conflicted := false
			for _, other := range ct.conflict[mi] {
				if cs.inSlot[other] {
					conflicted = true
					break
				}
			}
			var oc byte
			switch {
			case conflicted && !faults.CaptureWins(round, edge, attemptSalt(mi, try)):
				oc = coCollided
			case cs.recvDead[mi]:
				oc = coLost
			default:
				eid := e.prog.msgEdge[mi]
				seq := cs.attemptCtr[eid]
				cs.attemptCtr[eid]++
				if faults.Deliver(round, edge, int(seq)) {
					oc = coDelivered
				} else {
					oc = coLost
				}
			}
			p.tries[mi] = append(p.tries[mi], oc)
			if oc == coDelivered && st.edgeOK[e.prog.msgEdge[mi]] {
				resolve(mi, s)
				continue
			}
			// Lost, collided, or heard-but-fenced (never acknowledged):
			// retry if budget remains, per the discipline.
			if try >= maxRetries {
				resolve(mi, s)
				continue
			}
			next := s + 1
			switch e.txMode {
			case TxTDMA:
				next = ownSlot(mi, next)
			case TxBackoff:
				window := 2
				for i := 0; i < try && i < 5; i++ {
					window *= 2
				}
				next += faults.BackoffSlots(round, edge, attemptSalt(mi, try), window)
			}
			enqueue(mi, next)
		}
		for _, mi := range txs {
			cs.inSlot[mi] = false
		}
	}
	return p, nil
}

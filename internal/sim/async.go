package sim

import (
	"fmt"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/routing"
)

// This file is the event-driven asynchronous execution mode: instead of
// the synchronous executors' round-at-once sweep, every transmission is a
// timed event with a per-link latency draw, the injector may duplicate and
// reorder deliveries, retransmission timeouts adapt per link
// (Jacobson/Karels RTT estimation with exponential backoff), and a
// destination closes its round either when its last input resolves or at a
// configurable deadline — emitting its best partial aggregate, tagged with
// coverage and a staleness age from a last-known-value cache.
//
// Two invariants anchor it to the synchronous semantics:
//
//  1. a fault-free async round is byte-identical to Engine.Run — same
//     values, same total and per-node energy;
//  2. duplication and reordering never change delivered values, only
//     timing and energy, because every transmission is tagged (epoch, seq)
//     and receivers discard tags they have already applied. The tag is
//     modelled by the receiver's dedup window only: it is never encoded,
//     and no energy path prices it. The merge m_d is not idempotent —
//     without the dedup window a duplicated SUM/COUNT partial would
//     silently corrupt every downstream destination.
//
// Identity of values holds because receivers fold partial records in
// planned message order, not arrival order: floating-point merges are
// replayed in exactly the sequence RunLossy would use, whatever the
// channel did to the timing.

// AsyncConfig tunes the asynchronous executor. Zero values select the
// defaults noted on each field.
type AsyncConfig struct {
	// MaxRetries bounds retransmissions per message beyond the first
	// attempt (0 selects the default 3; negative means none), matching the
	// synchronous stop-and-wait budget.
	MaxRetries int
	// DeadlineMS closes every destination's round at this simulated time,
	// emitting whatever partial coverage has arrived (0 = unbounded).
	DeadlineMS float64
}

const (
	// initialRTOMS seeds a link's retransmission timeout before it has any
	// RTT sample. A message's timeout additionally never drops below twice
	// its data + ack serialization time, so a sender can never time out a
	// packet that has not finished leaving the radio.
	initialRTOMS = 200.0
	// minRTOMS and maxRTOMS clamp the adaptive timeout. Backoff doubles
	// the timeout per retransmission up to the cap.
	minRTOMS = 1.0
	maxRTOMS = 60000.0
	// dedupWindow is the per-link (epoch, seq) window depth a real mote is
	// assumed to keep. The simulator always dedups exactly — values never
	// double-count — but any duplicate that a window this size would have
	// let through is reported in WindowOverflows.
	dedupWindow = 64
	// byteTimeMS is the serialization time of one on-air byte: the
	// CC1000's 38.4 kbaud Manchester link.
	byteTimeMS = 8.0 / 38.4
)

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	return c
}

// Validate rejects configurations the executor cannot run.
func (c AsyncConfig) Validate() error {
	if c.DeadlineMS < 0 {
		return fmt.Errorf("sim: negative deadline %v", c.DeadlineMS)
	}
	return nil
}

// rttEstimator is the Jacobson/Karels smoothed RTT tracker: srtt and
// rttvar EWMAs with the classic gains (α=1/8, β=1/4), RTO = srtt+4·rttvar.
type rttEstimator struct {
	srtt, rttvar float64
	valid        bool
}

// observe folds one RTT sample in. Per Karn's algorithm callers must not
// sample retransmitted messages (the ack is ambiguous).
func (r *rttEstimator) observe(ms float64) {
	if !r.valid {
		r.srtt = ms
		r.rttvar = ms / 2
		r.valid = true
		return
	}
	d := ms - r.srtt
	if d < 0 {
		d = -d
	}
	r.rttvar += 0.25 * (d - r.rttvar)
	r.srtt += 0.125 * (ms - r.srtt)
}

// rto is the current retransmission timeout, clamped to
// [minRTOMS, maxRTOMS].
func (r *rttEstimator) rto() float64 {
	if !r.valid {
		return initialRTOMS
	}
	rto := r.srtt + 4*r.rttvar
	if rto < minRTOMS {
		rto = minRTOMS
	}
	if rto > maxRTOMS {
		rto = maxRTOMS
	}
	return rto
}

// AsyncResult reports one asynchronous round. It embeds the synchronous
// LossyResult (values, per-destination reports, outcomes, energy) and adds
// the timing-channel observables.
type AsyncResult struct {
	LossyResult
	// MakespanMS is when the round's last delivery or give-up settled.
	MakespanMS float64
	// DupCopies counts copies the dedup window discarded: injector
	// duplicates plus spurious-retransmission arrivals.
	DupCopies int
	// Reordered counts messages whose first copy arrived behind a
	// higher-sequence message on the same link.
	Reordered int
	// SpuriousTx counts retransmissions of messages whose data had already
	// arrived (the RTO fired while the ack was still in flight).
	SpuriousTx int
	// DeadlineClosed counts destinations whose round the deadline closed.
	DeadlineClosed int
	// MaxDedupDepth is the deepest window position a duplicate was caught
	// at; a real mote needs a dedup window of at least this.
	MaxDedupDepth int
	// WindowOverflows counts duplicates that arrived deeper than the
	// 64-tag dedup window — a mote with that window would have
	// double-counted them (the simulator still dedups exactly).
	WindowOverflows int
}

// linkKey is a direction-normalized physical link (RTT state is shared by
// both directions of a link).
type linkKey struct{ a, b graph.NodeID }

func linkKeyOf(e routing.Edge) linkKey {
	if e.From <= e.To {
		return linkKey{e.From, e.To}
	}
	return linkKey{e.To, e.From}
}

// asyncTopo is the message-level view of the plan the event loop runs on:
// which messages wait for which, and which messages feed each
// destination's final merge. Destinations are identified by their dense
// index into the compiled program's finals.
type asyncTopo struct {
	deps       [][]int   // deps[m] = messages m's payload waits for
	dependents [][]int   // inverse of deps
	relevant   [][]int32 // relevant[m] = final indices whose merge reads m
	inCount    []int32   // per-final count of relevant in-messages
	seqTag     []uint32  // per-link wire sequence tag of each message

	// Physical links, direction-normalized, in order of first use: link[m]
	// is message m's, and linkIdx inverts links.
	link    []int32
	links   []linkKey
	linkIdx map[linkKey]int32
}

// asyncTopology derives the message DAG from the unit-level wait-for sets
// of buildDeps. The build is lazy and guarded by topoOnce, so concurrent
// rounds over one engine observe a single, immutable topology.
func (e *Engine) asyncTopology() *asyncTopo {
	e.topoOnce.Do(func() { e.topo = e.buildAsyncTopo() })
	return e.topo
}

func (e *Engine) buildAsyncTopo() *asyncTopo {
	t := &asyncTopo{
		dependents: make([][]int, len(e.messages)),
		relevant:   make([][]int32, len(e.messages)),
		inCount:    make([]int32, len(e.prog.finals)),
		seqTag:     make([]uint32, len(e.messages)),
		link:       make([]int32, len(e.messages)),
		linkIdx:    make(map[linkKey]int32),
	}
	t.deps = e.messageDeps()
	for mi, ds := range t.deps {
		for _, dm := range ds {
			t.dependents[dm] = append(t.dependents[dm], mi) // ascending: mi ascends
		}
	}
	inst := e.Plan.Inst
	nextSeq := make(map[routing.Edge]uint32)
	for mi, msg := range e.messages {
		edge := e.units[msg[0]].Edge
		t.seqTag[mi] = nextSeq[edge]
		nextSeq[edge]++
		k := linkKeyOf(edge)
		li, ok := t.linkIdx[k]
		if !ok {
			li = int32(len(t.links))
			t.links = append(t.links, k)
			t.linkIdx[k] = li
		}
		t.link[mi] = li

		// Relevance to the receiver's own aggregate: the record tagged for
		// it, or a raw value this edge is the designated provider of.
		if spec, ok := inst.SpecByDest[edge.To]; ok {
			f := spec.Func
			var rel bool
			for _, ui := range msg {
				u := e.units[ui]
				switch {
				case u.Kind == plan.UnitAgg && u.Node == edge.To:
					rel = true
				case u.Kind == plan.UnitRaw && f.HasSource(u.Node) && e.provUnit[ui]:
					rel = true
				}
			}
			if rel {
				fi := e.prog.finalIndex(edge.To)
				t.relevant[mi] = append(t.relevant[mi], fi)
				t.inCount[fi]++
			}
		}
	}
	return t
}

// AsyncRunner executes rounds on the event-driven engine while carrying
// the cross-round adaptive state: per-link RTT estimators and the
// per-destination last-known-value cache that prices staleness. One runner
// serves one engine; sessions that replan build a new runner and inherit
// the old one's caches with InheritState.
type AsyncRunner struct {
	eng  *Engine
	cfg  AsyncConfig
	topo *asyncTopo

	rtt []rttEstimator // per physical link, indexed like topo.links
	// rttAway keeps inherited estimators of links this engine's plan does
	// not use, so a later replan that uses them again resumes their
	// history.
	rttAway   map[linkKey]rttEstimator
	lastVal   map[graph.NodeID]float64
	lastFresh map[graph.NodeID]int
}

// NewAsyncRunner prepares asynchronous execution of the engine's plan.
func NewAsyncRunner(e *Engine, cfg AsyncConfig) (*AsyncRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := e.asyncTopology()
	return &AsyncRunner{
		eng:       e,
		cfg:       cfg.withDefaults(),
		topo:      topo,
		rtt:       make([]rttEstimator, len(topo.links)),
		lastVal:   make(map[graph.NodeID]float64),
		lastFresh: make(map[graph.NodeID]int),
	}, nil
}

// InheritState adopts another runner's RTT estimators and last-known-value
// cache — used when a session replans mid-run: the physical links (and the
// destinations that survived) keep their history.
func (a *AsyncRunner) InheritState(prev *AsyncRunner) {
	if prev == nil {
		return
	}
	for k, est := range prev.rttAway {
		a.adoptRTT(k, est)
	}
	for i, est := range prev.rtt {
		if est.valid {
			a.adoptRTT(prev.topo.links[i], est)
		}
	}
	for d, v := range prev.lastVal {
		a.lastVal[d] = v
	}
	for d, r := range prev.lastFresh {
		a.lastFresh[d] = r
	}
}

// adoptRTT installs an inherited estimator of link k.
func (a *AsyncRunner) adoptRTT(k linkKey, est rttEstimator) {
	if i, ok := a.topo.linkIdx[k]; ok {
		a.rtt[i] = est
		return
	}
	if a.rttAway == nil {
		a.rttAway = make(map[linkKey]rttEstimator)
	}
	a.rttAway[k] = est
}

// RunAsync executes one round on a fresh AsyncRunner — no RTT or staleness
// state carried across calls. Sessions that want cross-round adaptation
// hold an AsyncRunner instead.
func (e *Engine) RunAsync(round int, readings map[graph.NodeID]float64, faults Faults, cfg AsyncConfig) (*AsyncResult, error) {
	r, err := NewAsyncRunner(e, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(round, readings, faults)
}

// Event kinds, in same-timestamp processing order: deliveries and acks
// settle before new sends and timeouts fire, and the deadline is the very
// last thing to happen at its instant — a delivery exactly at the deadline
// still counts.
const (
	evArrive = iota
	evAck
	evSend
	evTimeout
	evDeadline
)

type asyncEvent struct {
	t       float64
	kind    int
	seq     int // FIFO tiebreak within (t, kind)
	msg     int
	attempt int // wire attempt sequence (Deliver draw index)
	copy    int
	wreck   bool // a collision-destroyed frame arriving: RX paid, no merge, no ack
}

// before orders events by time, then kind, then push sequence. seq is
// unique within a queue, so the order is total and every heap pops the
// same sequence.
func (x *asyncEvent) before(y *asyncEvent) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	return x.seq < y.seq
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []asyncEvent

func (q *eventQueue) push(ev asyncEvent) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the first event; the queue must be non-empty.
func (q *eventQueue) pop() asyncEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// amsg is one planned message's live state in the event loop.
type amsg struct {
	edge          routing.Edge
	waiting       int
	resolved      bool
	delivered     bool
	acked         bool
	retransmitted bool
	anyCopyComing bool
	attempts      int
	copies        int
	body          int
	firstSendAt   float64
	rto           float64
	raws          []carriedRaw
	recs          []carriedRec
}

// asyncScratch is Run's per-round state, pooled in the engine's
// lossyState: each message's live state, and per destination whether its
// round closed and how many relevant inputs it still waits for. Then the
// per-link receive window: a message's (epoch, seq) tag is unique, so
// "tag applied" indexes by message; the highest tag heard indexes by the
// compiled dense edge id.
type asyncScratch struct {
	msgs      []amsg
	closed    []bool
	pendingIn []int32
	applied   []bool
	maxTag    []uint32
	hasTag    []bool
}

// reset readies the scratch for a round of e, sizing it on first use.
func (as *asyncScratch) reset(e *Engine) {
	nm, nf := len(e.messages), len(e.prog.finals)
	if len(as.msgs) != nm {
		as.msgs = make([]amsg, nm)
		as.closed = make([]bool, nf)
		as.pendingIn = make([]int32, nf)
		as.applied = make([]bool, nm)
		as.maxTag = make([]uint32, e.prog.nMsgEdges)
		as.hasTag = make([]bool, e.prog.nMsgEdges)
	}
	clear(as.closed)
	clear(as.applied)
	clear(as.maxTag)
	clear(as.hasTag)
}

// Run executes one asynchronous round. With a nil or fault-free schedule
// the result is byte-identical to Engine.Run (values and energy); under
// duplication and reordering only timing and energy may change, never the
// delivered values.
func (a *AsyncRunner) Run(round int, readings map[graph.NodeID]float64, faults Faults) (*AsyncResult, error) {
	e := a.eng
	c := e.prog
	topo := a.topo
	cfg := a.cfg
	bat := e.battery
	res := &AsyncResult{}
	// Under a collision schedule the round's contention is resolved once
	// by the slot oracle and replayed here attempt-for-attempt, so the
	// event-driven outcomes match the synchronous executor's exactly.
	r, err := e.beginRound(round, readings, faults, cfg.MaxRetries, &res.LossyResult)
	if err != nil {
		return nil, err
	}
	defer r.end()
	faults = r.faults
	ls := r.st
	ls.async.reset(e)
	msgs, closed, pendingIn := ls.async.msgs, ls.async.closed, ls.async.pendingIn
	applied, maxTag, hasTag := ls.async.applied, ls.async.maxTag, ls.async.hasTag

	for mi, msg := range e.messages {
		msgs[mi] = amsg{edge: e.units[msg[0]].Edge, waiting: len(topo.deps[mi])}
	}

	// Per-destination round state, indexed by final index. Dead
	// destinations are reported closed up front, exactly like the
	// synchronous executor.
	for fi := range c.finals {
		if !r.down(c.finals[fi].dest) {
			pendingIn[fi] = topo.inCount[fi]
			continue
		}
		closed[fi] = true
		a.ageReport(r.report(fi, true), round)
	}

	q := &ls.q
	*q = (*q)[:0]
	pushSeq := 0
	push := func(t float64, kind, msg, attempt, copy int) {
		pushSeq++
		q.push(asyncEvent{t: t, kind: kind, seq: pushSeq, msg: msg, attempt: attempt, copy: copy})
	}
	pushWreck := func(t float64, msg, attempt int) {
		pushSeq++
		q.push(asyncEvent{t: t, kind: evArrive, seq: pushSeq, msg: msg, attempt: attempt, wreck: true})
	}

	serMS := func(bodyBytes int) float64 {
		return byteTimeMS * float64(e.Radio.MessageBytes(bodyBytes))
	}
	serAckMS := byteTimeMS * float64(e.Radio.HeaderBytes)

	// Slot duration (largest planned frame) maps the oracle's slot
	// arithmetic — TDMA send times, backoff gaps — onto simulated time.
	cp := r.cp
	var slotMS float64
	if cp != nil {
		slotMS = serMS(cp.maxBody)
	}
	// sendAt floors a message's first transmission to its TDMA slot.
	sendAt := func(t float64, mi int) float64 {
		if cp != nil && cp.slotOf != nil {
			if fl := float64(cp.slotOf[mi]) * slotMS; t < fl {
				t = fl
			}
		}
		return t
	}

	note := func(t float64) {
		if t > res.MakespanMS {
			res.MakespanMS = t
		}
	}

	closeDest := func(fi int32, t float64, deadlineHit bool) {
		if closed[fi] {
			return
		}
		closed[fi] = true
		rep := r.report(int(fi), false)
		rep.ClosedAtMS = t
		// A deadline close with full coverage degrades nothing.
		rep.DeadlineHit = deadlineHit && !rep.Fresh
		if rep.DeadlineHit {
			res.DeadlineClosed++
		}
		if rep.Fresh {
			a.lastVal[rep.Dest] = res.Values[rep.Dest]
			a.lastFresh[rep.Dest] = round
		}
		a.ageReport(rep, round)
	}

	var resolve func(mi int, t float64)
	resolve = func(mi int, t float64) {
		st := &msgs[mi]
		if st.resolved {
			return
		}
		st.resolved = true
		note(t)
		for _, dm := range topo.dependents[mi] {
			ds := &msgs[dm]
			ds.waiting--
			if ds.waiting == 0 {
				push(sendAt(t, dm), evSend, dm, 0, 0)
			}
		}
		for _, fi := range topo.relevant[mi] {
			if closed[fi] {
				continue
			}
			pendingIn[fi]--
			if pendingIn[fi] == 0 {
				closeDest(fi, t, false)
			}
		}
	}

	// transmit fires one attempt. With a ledger the sender pays TX up
	// front — a sender that cannot pay browns out and the attempt never
	// happens (transmit reports false; no events are scheduled) — and the
	// receiver pays RX per copy as it is put on the air: only paid copies
	// are ever scheduled to arrive, so the settled books (attempts·TX +
	// copies·RX) equal the debits exactly.
	transmit := func(mi int, now float64) bool {
		st := &msgs[mi]
		if bat != nil && !bat.Spend(round, st.edge.From, e.Radio.TxJoules(st.body)) {
			return false
		}
		st.attempts++
		r.attempted(st.attempts)
		if st.delivered {
			res.SpuriousTx++
		}
		eid := c.msgEdge[mi]
		wireAtt := int(ls.attempt[eid])
		ls.attempt[eid]++
		recvDown := r.down(st.edge.To)
		rxJ := e.Radio.RxJoules(st.body)
		heard := 0
		switch r.channel(mi, st.attempts-1, wireAtt, st.edge, recvDown) {
		case coCollided:
			// The wreck is heard once and paid for, then fails its checksum.
			res.Collisions++
			if !recvDown && (bat == nil || bat.Spend(round, st.edge.To, rxJ)) {
				lat := faults.LatencyMS(round, st.edge, wireAtt, 0)
				pushWreck(now+serMS(st.body)+lat, mi, wireAtt)
			}
		case coDelivered:
			if recvDown {
				break
			}
			copies := 1 + faults.Duplicates(round, st.edge, wireAtt)
			for ; heard < copies; heard++ {
				if bat != nil && !bat.Spend(round, st.edge.To, rxJ) {
					break // receiver browned out: this and later copies unheard
				}
				lat := faults.LatencyMS(round, st.edge, wireAtt, 2*heard)
				push(now+serMS(st.body)+lat, evArrive, mi, wireAtt, heard)
			}
		}
		// An epoch-fenced copy still arrives (and is paid for), but the
		// receiver will discard it, so it cannot resolve the message.
		if heard > 0 && ls.edgeOK[eid] {
			st.anyCopyComing = true
		}
		push(now+st.rto, evTimeout, mi, st.attempts, 0)
		return true
	}

	// Seed the loop: every message with no dependencies fires at t=0 (or
	// its TDMA slot), in planned order.
	for mi := range msgs {
		if msgs[mi].waiting == 0 {
			push(sendAt(0, mi), evSend, mi, 0, 0)
		}
	}
	if cfg.DeadlineMS > 0 {
		push(cfg.DeadlineMS, evDeadline, -1, 0, 0)
	}

	for len(*q) > 0 {
		ev := q.pop()
		switch ev.kind {
		case evSend:
			st := &msgs[ev.msg]
			if r.down(st.edge.From) {
				// Dead or depleted sender: silence, no attempts, no energy.
				resolve(ev.msg, ev.t)
				continue
			}
			// Snapshot the payload from what has arrived by now; every
			// retransmission carries these same bytes under the same tag.
			st.raws, st.recs, st.body = r.snapshot(ev.msg)
			st.rto = a.rtt[topo.link[ev.msg]].rto()
			if floor := 2 * (serMS(st.body) + serAckMS); st.rto < floor {
				st.rto = floor
			}
			st.firstSendAt = ev.t
			if !transmit(ev.msg, ev.t) {
				// The sender browned out before its first attempt: the
				// message is lost for good, like a dead sender's.
				resolve(ev.msg, ev.t)
			}

		case evArrive:
			st := &msgs[ev.msg]
			st.copies++
			note(ev.t)
			if ev.wreck {
				// A collision-destroyed frame: the receiver paid RX for the
				// wreck (copies settles the books) but there is nothing to
				// merge, dedup, or acknowledge.
				continue
			}
			tag := topo.seqTag[ev.msg]
			eid := c.msgEdge[ev.msg]
			if !ls.edgeOK[eid] {
				// Wrong plan epoch: the frame is heard (RX was paid) but
				// discarded before the merge, and never acknowledged.
				res.EpochDropped++
				continue
			}
			if applied[ev.msg] {
				// The dedup window catches the copy: paid for (RX), then
				// discarded — the merge never sees it twice.
				res.DupCopies++
				if depth := int(maxTag[eid] - tag); depth > 0 {
					if depth > res.MaxDedupDepth {
						res.MaxDedupDepth = depth
					}
					if depth >= dedupWindow {
						res.WindowOverflows++
					}
				}
			} else {
				applied[ev.msg] = true
				if hasTag[eid] && tag < maxTag[eid] {
					res.Reordered++
				}
				if !hasTag[eid] || tag > maxTag[eid] {
					maxTag[eid] = tag
					hasTag[eid] = true
				}
				st.delivered = true
				r.deliver(ev.msg, st.raws, st.recs)
				resolve(ev.msg, ev.t)
			}
			// The receiver acknowledges every copy it hears; acks are
			// header-only and priced as free, like the synchronous ARQ's
			// implicit acks.
			ackLat := faults.LatencyMS(round, st.edge, ev.attempt, 2*ev.copy+1)
			push(ev.t+serAckMS+ackLat, evAck, ev.msg, ev.attempt, ev.copy)

		case evAck:
			st := &msgs[ev.msg]
			note(ev.t)
			if st.acked {
				continue
			}
			st.acked = true
			if !st.retransmitted {
				// Karn's algorithm: only a never-retransmitted message
				// yields an unambiguous RTT sample.
				a.rtt[topo.link[ev.msg]].observe(ev.t - st.firstSendAt)
			}

		case evTimeout:
			st := &msgs[ev.msg]
			if st.acked || ev.attempt != st.attempts {
				continue // answered, or superseded by a later attempt
			}
			if st.attempts <= cfg.MaxRetries {
				st.retransmitted = true
				st.rto *= 2
				if st.rto > maxRTOMS {
					st.rto = maxRTOMS
				}
				when := ev.t
				if cp != nil && cp.mode != TxUnscheduled {
					// Backoff and TDMA recovery: delay the retransmission by
					// the seeded binary exponential backoff draw so retries
					// de-synchronize in time. Under TDMA the oracle puts a
					// retry in the message's next frame copy instead; this
					// delay only approximates that wait, and the attempt's
					// outcome still comes from the oracle.
					ft := st.attempts - 1 // the try that just failed
					window := 2
					for i := 0; i < ft && i < 5; i++ {
						window *= 2
					}
					when += float64(faults.BackoffSlots(round, st.edge, attemptSalt(ev.msg, ft), window)) * slotMS
				}
				if !transmit(ev.msg, when) && !st.anyCopyComing {
					// Browned out mid-ARQ with nothing in flight: the
					// remaining retries are abandoned.
					resolve(ev.msg, ev.t)
				}
			} else if !st.anyCopyComing {
				// Budget exhausted and nothing in flight: the message is
				// lost for good.
				resolve(ev.msg, ev.t)
			}

		case evDeadline:
			for fi := range c.finals {
				closeDest(int32(fi), ev.t, true)
			}
		}
	}

	// Settle the books in planned order.
	for mi := range msgs {
		st := &msgs[mi]
		res.Outcomes = append(res.Outcomes, EdgeOutcome{
			Edge:      st.edge,
			Attempts:  st.attempts,
			Delivered: st.delivered,
			BodyBytes: st.body,
		})
		if !st.delivered {
			res.Dropped++
		}
		if st.attempts == 0 {
			continue
		}
		txJ := e.Radio.TxJoules(st.body)
		rxJ := e.Radio.RxJoules(st.body)
		if st.delivered && st.attempts == 1 && st.copies == 1 {
			res.EnergyJ += e.Radio.UnicastJoules(st.body)
		} else {
			res.EnergyJ += float64(st.attempts)*txJ + float64(st.copies)*rxJ
		}
		res.PerNodeJ[st.edge.From] += float64(st.attempts) * txJ
		if st.copies > 0 {
			res.PerNodeJ[st.edge.To] += float64(st.copies) * rxJ
		}
	}
	return res, nil
}

// ageReport fills the staleness fields from the last-known-value cache.
func (a *AsyncRunner) ageReport(rep *DeliveryReport, round int) {
	if rep.Fresh {
		return
	}
	if lf, ok := a.lastFresh[rep.Dest]; ok {
		rep.AgeRounds = round - lf
	} else {
		rep.AgeRounds = round + 1 // never served fresh
	}
	if v, ok := a.lastVal[rep.Dest]; ok {
		rep.LastKnown = v
		rep.HasLastKnown = true
	}
}

package sim

import (
	"container/heap"
	"fmt"

	"m2m/internal/agg"
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
//     (the versioned wire header of internal/wire) and receivers discard
//     tags they have already applied. The merge m_d is not idempotent —
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
	// InitialRTOMS seeds a link's retransmission timeout before it has any
	// RTT sample (default 200). A message's timeout additionally never
	// drops below twice its data + ack serialization time, so a sender can
	// never time out a packet that has not finished leaving the radio.
	InitialRTOMS float64
	// MinRTOMS and MaxRTOMS clamp the adaptive timeout (defaults 1 and
	// 60000). Backoff doubles the timeout per retransmission up to the cap.
	MinRTOMS float64
	MaxRTOMS float64
	// DeadlineMS closes every destination's round at this simulated time,
	// emitting whatever partial coverage has arrived (0 = unbounded).
	DeadlineMS float64
	// DedupWindow is the per-link (epoch, seq) window depth a real mote is
	// assumed to keep (default 64). The simulator always dedups exactly —
	// values never double-count — but any duplicate that a window this
	// size would have let through is reported in WindowOverflows.
	DedupWindow int
	// ByteTimeMS is the serialization time of one on-air byte (default
	// 8/38.4 ≈ 0.208, the CC1000's 38.4 kbaud Manchester link).
	ByteTimeMS float64
}

// DefaultByteTimeMS is the CC1000 serialization time of one byte.
const DefaultByteTimeMS = 8.0 / 38.4

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.InitialRTOMS == 0 {
		c.InitialRTOMS = 200
	}
	if c.MinRTOMS == 0 {
		c.MinRTOMS = 1
	}
	if c.MaxRTOMS == 0 {
		c.MaxRTOMS = 60000
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 64
	}
	if c.ByteTimeMS == 0 {
		c.ByteTimeMS = DefaultByteTimeMS
	}
	return c
}

// Validate rejects configurations the executor cannot run.
func (c AsyncConfig) Validate() error {
	d := c.withDefaults()
	if d.InitialRTOMS < 0 || d.MinRTOMS < 0 || d.MaxRTOMS < d.MinRTOMS {
		return fmt.Errorf("sim: RTO bounds [%v, %v] (initial %v) invalid", d.MinRTOMS, d.MaxRTOMS, d.InitialRTOMS)
	}
	if d.DeadlineMS < 0 {
		return fmt.Errorf("sim: negative deadline %v", d.DeadlineMS)
	}
	if d.DedupWindow < 0 {
		return fmt.Errorf("sim: negative dedup window %d", d.DedupWindow)
	}
	if d.ByteTimeMS <= 0 {
		return fmt.Errorf("sim: non-positive byte time %v", d.ByteTimeMS)
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

// rto is the current retransmission timeout under cfg's clamps.
func (r *rttEstimator) rto(cfg AsyncConfig) float64 {
	if !r.valid {
		return cfg.InitialRTOMS
	}
	rto := r.srtt + 4*r.rttvar
	if rto < cfg.MinRTOMS {
		rto = cfg.MinRTOMS
	}
	if rto > cfg.MaxRTOMS {
		rto = cfg.MaxRTOMS
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
	// at; a real mote needs DedupWindow of at least this.
	MaxDedupDepth int
	// WindowOverflows counts duplicates that arrived deeper than the
	// configured DedupWindow — a mote with that window would have
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
				fi := e.prog.finalOf[edge.To]
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
	eng *Engine
	cfg AsyncConfig

	rtt       map[linkKey]*rttEstimator
	lastVal   map[graph.NodeID]float64
	lastFresh map[graph.NodeID]int
}

// NewAsyncRunner prepares asynchronous execution of the engine's plan.
func NewAsyncRunner(e *Engine, cfg AsyncConfig) (*AsyncRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AsyncRunner{
		eng:       e,
		cfg:       cfg.withDefaults(),
		rtt:       make(map[linkKey]*rttEstimator),
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
	for k, v := range prev.rtt {
		a.rtt[k] = v
	}
	for d, v := range prev.lastVal {
		a.lastVal[d] = v
	}
	for d, r := range prev.lastFresh {
		a.lastFresh[d] = r
	}
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

type eventQueue []asyncEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(asyncEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// amsg is one planned message's live state in the event loop.
type amsg struct {
	edge          routing.Edge
	waiting       int
	fired         bool
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

// contrib is one delivered partial record at a compiled record slot,
// remembered with the planned index of the message that carried it so
// folds replay the synchronous merge order exactly.
type contrib struct {
	msgIdx int
	rec    agg.Record
	cov    []uint64
}

// addContrib inserts nc keeping the list ascending by planned message
// index (the dedup window guarantees at most one contribution per
// message, so indices are distinct).
func addContrib(cs []contrib, nc contrib) []contrib {
	cs = append(cs, nc)
	i := len(cs) - 1
	for i > 0 && cs[i-1].msgIdx > nc.msgIdx {
		cs[i] = cs[i-1]
		i--
	}
	cs[i] = nc
	return cs
}

// Run executes one asynchronous round. With a nil or fault-free schedule
// the result is byte-identical to Engine.Run (values and energy); under
// duplication and reordering only timing and energy may change, never the
// delivered values.
func (a *AsyncRunner) Run(round int, readings map[graph.NodeID]float64, faults Faults) (*AsyncResult, error) {
	e := a.eng
	faults, adv := e.resolveFaults(faults)
	c := e.prog
	topo := e.asyncTopology()
	cfg := a.cfg
	bat := e.battery
	down := func(n graph.NodeID) bool {
		return faults.NodeDead(round, n) || (bat != nil && bat.Depleted(n))
	}

	res := &AsyncResult{LossyResult: LossyResult{
		Values:   make(map[graph.NodeID]float64, len(c.finals)),
		Reports:  make(map[graph.NodeID]*DeliveryReport, len(c.finals)),
		PerNodeJ: make(map[graph.NodeID]float64),
		Messages: len(e.messages),
	}}

	ls := e.getLossyState()
	defer e.putLossyState(ls)
	e.fillEdgeFence(ls, faults)
	// Under a collision schedule the round's contention is resolved once
	// by the slot oracle and replayed here attempt-for-attempt, so the
	// event-driven outcomes match the synchronous executor's exactly.
	cp, err := e.collisionPlanFor(round, faults, cfg.MaxRetries, ls.edgeOK)
	if err != nil {
		return nil, err
	}
	contribs := make([][]contrib, c.nRec)
	for i, slot := range c.srcSlot {
		if !down(c.srcIDs[i]) {
			v := readings[c.srcIDs[i]]
			if adv != nil {
				v = adv.CorruptReading(round, c.srcIDs[i], v)
			}
			ls.raw[slot] = v
			ls.rawSet[slot] = true
		}
	}

	msgs := make([]amsg, len(e.messages))
	for mi, msg := range e.messages {
		msgs[mi].edge = e.units[msg[0]].Edge
		msgs[mi].waiting = len(topo.deps[mi])
	}

	// Per-destination round state, indexed by final index. Dead
	// destinations are reported closed up front, exactly like the
	// synchronous executor.
	closed := make([]bool, len(c.finals))
	pendingIn := make([]int32, len(c.finals))
	for fi := range c.finals {
		fo := &c.finals[fi]
		if !down(fo.dest) {
			pendingIn[fi] = topo.inCount[fi]
			continue
		}
		closed[fi] = true
		rep := &DeliveryReport{Dest: fo.dest, DestDead: true, Starved: true}
		rep.Missing = append([]graph.NodeID(nil), fo.sources...)
		a.ageReport(rep, round)
		res.Reports[fo.dest] = rep
	}

	// Per-link receive window: a message's (epoch, seq) tag is unique, so
	// "tag applied" indexes by message; the highest tag heard and the ARQ
	// attempt counter index by the compiled dense edge id.
	applied := make([]bool, len(e.messages))
	maxTag := make([]uint32, c.nMsgEdges)
	hasTag := make([]bool, c.nMsgEdges)
	attemptSeq := make([]int, c.nMsgEdges)

	var q eventQueue
	pushSeq := 0
	push := func(t float64, kind, msg, attempt, copy int) {
		pushSeq++
		heap.Push(&q, asyncEvent{t: t, kind: kind, seq: pushSeq, msg: msg, attempt: attempt, copy: copy})
	}
	pushWreck := func(t float64, msg, attempt int) {
		pushSeq++
		heap.Push(&q, asyncEvent{t: t, kind: evArrive, seq: pushSeq, msg: msg, attempt: attempt, wreck: true})
	}

	serMS := func(bodyBytes int) float64 {
		return cfg.ByteTimeMS * float64(e.Radio.MessageBytes(bodyBytes))
	}
	serAckMS := cfg.ByteTimeMS * float64(e.Radio.HeaderBytes)

	// Slot duration (largest planned frame) maps the oracle's slot
	// arithmetic — TDMA send times, backoff gaps — onto simulated time.
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

	var runErr error
	note := func(t float64) {
		if t > res.MakespanMS {
			res.MakespanMS = t
		}
	}

	closeDest := func(fi int32, t float64, deadlineHit bool) {
		if closed[fi] || runErr != nil {
			return
		}
		closed[fi] = true
		fo := &c.finals[fi]
		d := fo.dest
		tmp := ls.tmp[:fo.fnLen]
		got := e.assembleAsyncInto(fo.fn, fo.ip, fo.inputs, ls, contribs, tmp)
		rep := &DeliveryReport{Dest: d, ClosedAtMS: t}
		for j, s := range fo.sources {
			if covHasBit(ls.covTmp, fo.srcBits[j]) {
				rep.Covered = append(rep.Covered, s)
			} else {
				rep.Missing = append(rep.Missing, s)
			}
		}
		if !got {
			rep.Starved = true
		} else {
			rep.Fresh = len(rep.Missing) == 0
			res.Values[d] = fo.fn.Eval(tmp)
		}
		// A deadline close with full coverage degrades nothing.
		rep.DeadlineHit = deadlineHit && !rep.Fresh
		if rep.DeadlineHit {
			res.DeadlineClosed++
		}
		if rep.Fresh {
			a.lastVal[d] = res.Values[d]
			a.lastFresh[d] = round
		}
		a.ageReport(rep, round)
		res.Reports[d] = rep
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
		res.Transmissions++
		if st.attempts > 1 {
			res.Retries++
		}
		if st.delivered {
			res.SpuriousTx++
		}
		eid := c.msgEdge[mi]
		wireAtt := attemptSeq[eid]
		attemptSeq[eid] = wireAtt + 1
		heardOK := false
		if cp != nil {
			// Replay the oracle's resolved outcome for this attempt; only
			// the battery gates are re-applied here (the slot model cannot
			// see mid-round brown-outs).
			switch cp.outcome(mi, st.attempts-1) {
			case coCollided:
				res.Collisions++
				if !down(st.edge.To) && (bat == nil || bat.Spend(round, st.edge.To, e.Radio.RxJoules(st.body))) {
					lat := faults.LatencyMS(round, st.edge, wireAtt, 0)
					pushWreck(now+serMS(st.body)+lat, mi, wireAtt)
				}
			case coDelivered:
				if !down(st.edge.To) {
					copies := 1 + faults.Duplicates(round, st.edge, wireAtt)
					heard := 0
					for c := 0; c < copies; c++ {
						if bat != nil && !bat.Spend(round, st.edge.To, e.Radio.RxJoules(st.body)) {
							break
						}
						lat := faults.LatencyMS(round, st.edge, wireAtt, 2*c)
						push(now+serMS(st.body)+lat, evArrive, mi, wireAtt, c)
						heard++
					}
					heardOK = heard > 0
				}
			}
		} else if !down(st.edge.To) && faults.Deliver(round, st.edge, wireAtt) {
			copies := 1 + faults.Duplicates(round, st.edge, wireAtt)
			heard := 0
			for c := 0; c < copies; c++ {
				if bat != nil && !bat.Spend(round, st.edge.To, e.Radio.RxJoules(st.body)) {
					break // receiver browned out: this and later copies unheard
				}
				lat := faults.LatencyMS(round, st.edge, wireAtt, 2*c)
				push(now+serMS(st.body)+lat, evArrive, mi, wireAtt, c)
				heard++
			}
			heardOK = heard > 0
		}
		// An epoch-fenced copy still arrives (and is paid for), but the
		// receiver will discard it, so it cannot resolve the message.
		if heardOK && ls.edgeOK[eid] {
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

	for q.Len() > 0 && runErr == nil {
		ev := heap.Pop(&q).(asyncEvent)
		switch ev.kind {
		case evSend:
			st := &msgs[ev.msg]
			if down(st.edge.From) {
				// Dead or depleted sender: silence, no attempts, no energy.
				resolve(ev.msg, ev.t)
				continue
			}
			// Snapshot the payload from what has arrived by now; every
			// retransmission carries these same bytes under the same tag.
			st.fired = true
			for _, ui := range e.messages[ev.msg] {
				op := &c.ops[ui]
				if op.kind == plan.UnitRaw {
					if ls.rawSet[op.from] {
						st.raws = append(st.raws, carriedRaw{slot: op.to, val: ls.raw[op.from]})
						st.body += int(c.unitBytes[ui])
					}
					continue
				}
				tmp := ls.tmp[:op.fnLen]
				if e.assembleAsyncInto(op.fn, op.ip, op.inputs, ls, contribs, tmp) {
					st.recs = append(st.recs, carriedRec{
						slot: op.out,
						rec:  append(agg.Record(nil), tmp...),
						cov:  append([]uint64(nil), ls.covTmp...),
					})
					st.body += int(c.unitBytes[ui])
				}
			}
			est := a.estimator(st.edge)
			st.rto = est.rto(cfg)
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
					if depth >= cfg.DedupWindow {
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
				for _, cr := range st.raws {
					ls.raw[cr.slot] = cr.val
					ls.rawSet[cr.slot] = true
				}
				for _, cr := range st.recs {
					contribs[cr.slot] = addContrib(contribs[cr.slot], contrib{msgIdx: ev.msg, rec: cr.rec, cov: cr.cov})
				}
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
				a.estimator(st.edge).observe(ev.t - st.firstSendAt)
			}

		case evTimeout:
			st := &msgs[ev.msg]
			if st.acked || ev.attempt != st.attempts {
				continue // answered, or superseded by a later attempt
			}
			if st.attempts <= cfg.MaxRetries {
				st.retransmitted = true
				st.rto *= 2
				if st.rto > cfg.MaxRTOMS {
					st.rto = cfg.MaxRTOMS
				}
				when := ev.t
				if cp != nil && cp.mode != TxUnscheduled {
					// Backoff and TDMA recovery: delay the retransmission by
					// the oracle's seeded binary exponential backoff draw so
					// retries de-synchronize in time like they do in slots.
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
	if runErr != nil {
		return nil, runErr
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

// estimator returns (creating on demand) the RTT tracker of e's link.
func (a *AsyncRunner) estimator(e routing.Edge) *rttEstimator {
	k := linkKeyOf(e)
	est := a.rtt[k]
	if est == nil {
		est = &rttEstimator{}
		a.rtt[k] = est
	}
	return est
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

// assembleAsyncInto is assembleLossyInto over the event-driven state: a
// record slot's value is its delivered contributions folded in planned
// message order (addContrib keeps them sorted), so the float merge
// sequence is identical to the synchronous executor's however the
// arrivals interleaved. Coverage accumulates into ls.covTmp; it reports
// whether anything was present.
func (e *Engine) assembleAsyncInto(fn agg.Func, ip agg.InPlace, inputs []unitInput, ls *lossyState, contribs [][]contrib, tmp agg.Record) bool {
	covClear(ls.covTmp)
	got := false
	for _, in := range inputs {
		if in.kind == inRec {
			cs := contribs[in.slot]
			if len(cs) == 0 {
				continue
			}
			// Fold the slot's contributions into their own buffer first,
			// then merge the folded record in — the reference executor's
			// exact association order.
			rec := agg.Record(ls.tmp3[:len(tmp)])
			copy(rec, cs[0].rec)
			covOr(ls.covTmp, cs[0].cov)
			for _, cc := range cs[1:] {
				mergeRecInto(fn, ip, rec, cc.rec)
				covOr(ls.covTmp, cc.cov)
			}
			if !got {
				got = true
				copy(tmp, rec)
			} else {
				mergeRecInto(fn, ip, tmp, rec)
			}
			continue
		}
		if !ls.rawSet[in.slot] {
			continue
		}
		v := ls.raw[in.slot]
		if !got {
			got = true
			if ip != nil {
				ip.PreAggInto(tmp, in.source, v)
			} else {
				copy(tmp, fn.PreAgg(in.source, v))
			}
		} else {
			op := agg.Record(ls.tmp2[:len(tmp)])
			if ip != nil {
				ip.PreAggInto(op, in.source, v)
				ip.MergeInto(tmp, op)
			} else {
				copy(op, fn.PreAgg(in.source, v))
				copy(tmp, fn.Merge(tmp, op))
			}
		}
		covSetBit(ls.covTmp, in.srcBit)
	}
	return got
}

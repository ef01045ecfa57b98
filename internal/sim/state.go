package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
)

// RoundState is the recyclable scratch of one compiled round: the raw
// value slots, the partial record arena, the two assembly buffers, and a
// reusable result. A state belongs to at most one in-flight round at a
// time; Engine.Run recycles states through an internal sync.Pool, so
// steady-state execution performs no per-round heap allocations.
type RoundState struct {
	raw   []float64 // raw value slots
	arena []float64 // partial record arena (record slots side by side)
	tmp   []float64 // record assembly accumulator
	tmp2  []float64 // pre-aggregation operand buffer
	res   RoundResult
}

// NewRoundState returns a fresh scratch sized for the engine's compiled
// program. States are engine-specific; using one with another engine is
// undefined.
func (e *Engine) NewRoundState() *RoundState {
	c := e.prog
	return &RoundState{
		raw:   make([]float64, c.nRaw),
		arena: make([]float64, c.arena),
		tmp:   make([]float64, c.maxRec),
		tmp2:  make([]float64, c.maxRec),
		res:   RoundResult{Values: make(map[graph.NodeID]float64, len(c.finals))},
	}
}

func (e *Engine) getState() *RoundState   { return e.pool.Get().(*RoundState) }
func (e *Engine) putState(st *RoundState) { e.pool.Put(st) }

// preAggRec writes raw operand in's pre-aggregated reading v into dst:
// through the kernel of a table-driven kind k, through fn when k is 0.
// compile proved the operand's source a member of fn (agg.ParamOf).
func preAggRec(k agg.Kind, fn agg.Func, dst agg.Record, in *unitInput, v float64) {
	if k != 0 {
		k.PreAggInto(dst, in.param, v)
		return
	}
	agg.PreAggMemberInto(fn, dst, graph.NodeID(in.source), v)
}

// mergeRec folds src into dst (dst = dst ⊕ src) through the kernel of k,
// or through fn when k is 0.
func mergeRec(k agg.Kind, fn agg.Func, dst, src agg.Record) {
	if k != 0 {
		k.MergeInto(dst, src)
		return
	}
	agg.MergeInto(fn, dst, src)
}

// evalRec evaluates a complete record through the kernel of k, or
// through fn when k is 0.
func evalRec(k agg.Kind, fn agg.Func, r agg.Record) float64 {
	if k != 0 {
		return k.Eval(r)
	}
	return fn.Eval(r)
}

// scalarOperand is operand in of a Scalar kind k, as a register value.
func scalarOperand(k agg.Kind, in *unitInput, raw, arena []float64, recOff []int32) float64 {
	if in.kind == inRec {
		return arena[recOff[in.slot]]
	}
	return k.PreAgg1(in.param, raw[in.slot])
}

// foldScalar is assembleInto for a Scalar kind: the same operand sequence
// and merges, folded in a register instead of a record.
func foldScalar(k agg.Kind, ins []unitInput, raw, arena []float64, recOff []int32) float64 {
	var acc float64
	for i := range ins {
		x := scalarOperand(k, &ins[i], raw, arena, recOff)
		if i == 0 {
			acc = x
		} else {
			acc = k.Merge1(acc, x)
		}
	}
	return acc
}

// assembleInto replays one compiled operand list into tmp: the first
// operand is written, the rest folded with the function's merge — the
// exact sequence (and therefore the exact floats) of the reference
// executor's assembleRecord. Presence was proven at compile time, so
// there are no runtime checks.
func assembleInto(k agg.Kind, fn agg.Func, ins []unitInput, st *RoundState, recOff []int32, tmp agg.Record) {
	for i := range ins {
		in := &ins[i]
		if in.kind == inRec {
			rec := st.arena[recOff[in.slot]:][:len(tmp)]
			if i == 0 {
				copy(tmp, rec)
			} else {
				mergeRec(k, fn, tmp, rec)
			}
			continue
		}
		v := st.raw[in.slot]
		if i == 0 {
			preAggRec(k, fn, tmp, in, v)
			continue
		}
		op := st.tmp2[:len(tmp)]
		preAggRec(k, fn, op, in, v)
		mergeRec(k, fn, tmp, op)
	}
}

// assemble builds record op's (or final merge's) record from operands
// ins into st.tmp and returns it: Scalar kinds fold in a register and
// store once, the others assemble in place.
func (c *compiled) assemble(k agg.Kind, fn agg.Func, fnLen int32, ins []unitInput, st *RoundState) agg.Record {
	tmp := st.tmp[:fnLen]
	if k.Scalar() {
		tmp[0] = foldScalar(k, ins, st.raw, st.arena, c.recOff)
	} else {
		assembleInto(k, fn, ins, st, c.recOff, tmp)
	}
	return tmp
}

// store writes record op's assembled record rec into its output slot,
// merging it with the record already there when the slot is shared.
func (c *compiled) store(op *unitOp, st *RoundState, rec agg.Record) {
	out := st.arena[c.recOff[op.out]:][:op.fnLen]
	if op.outMerge {
		mergeRec(op.alg, op.fn, out, rec)
	} else {
		copy(out, rec)
	}
}

// runCompiled executes one round of the compiled program over st, writing
// each destination's aggregate into values: one linear pass over the ops
// in processing order, then the final merges. Without an observer it is
// allocation-free.
func (e *Engine) runCompiled(readings map[graph.NodeID]float64, st *RoundState, values map[graph.NodeID]float64, obs Observer) {
	c := e.prog
	for i, slot := range c.srcSlot {
		st.raw[slot] = readings[c.srcIDs[i]]
	}
	if obs != nil {
		e.observeOps(st, obs)
	} else {
		c.runOps(st)
	}
	for i := range c.finals {
		fo := &c.finals[i]
		rec := c.assemble(fo.alg, fo.fn, fo.fnLen, c.ins[fo.lo:fo.hi], st)
		values[fo.dest] = evalRec(fo.alg, fo.fn, rec)
	}
}

// runOps is the pass over the ops. Raw copies are inline, and so is the
// weighted sum, the default workload kind: foldScalar spelled out with a
// constant kind, so the kernel's kind switches compile away and the loop
// makes no calls on that path (about a fifth off a 10k round).
func (c *compiled) runOps(st *RoundState) {
	raw, arena, recOff := st.raw, st.arena, c.recOff
	for p := range c.ops {
		op := &c.ops[p]
		switch {
		case op.raw:
			raw[op.to] = raw[op.from]
		case op.alg == agg.KindWeightedSum:
			const k = agg.KindWeightedSum
			var x float64
			for i, in := range c.ins[op.lo:op.hi] {
				y := scalarOperand(k, &in, raw, arena, recOff)
				if i == 0 {
					x = y
				} else {
					x = k.Merge1(x, y)
				}
			}
			out := &arena[recOff[op.out]]
			if op.outMerge {
				x = k.Merge1(*out, x)
			}
			*out = x
		default:
			c.store(op, st, c.assemble(op.alg, op.fn, op.fnLen, c.ins[op.lo:op.hi], st))
		}
	}
}

// observeOps is runOps reporting every unit to obs: raw values as they
// are copied and records as they are assembled, before any merge into a
// shared slot. Observed records are clones the observer may keep.
func (e *Engine) observeOps(st *RoundState, obs Observer) {
	c := e.prog
	for p := range c.ops {
		op := &c.ops[p]
		u := e.units[e.order[p]]
		if op.raw {
			st.raw[op.to] = st.raw[op.from]
			obs(u, st.raw[op.to], nil)
			continue
		}
		rec := c.assemble(op.alg, op.fn, op.fnLen, c.ins[op.lo:op.hi], st)
		obs(u, 0, append(agg.Record(nil), rec...))
		c.store(op, st, rec)
	}
}

// fillResult stamps the engine's precomputed round constants into res.
func (e *Engine) fillResult(res *RoundResult) {
	res.EnergyJ = e.energyJ
	res.Messages = len(e.messages)
	res.Units = len(e.units)
	res.BodyBytes = e.bodyBytes
	res.OnAirBytes = e.bodyBytes + len(e.messages)*e.Radio.HeaderBytes
	res.PerNodeJ = e.perNodeJ
}

// RunInto executes one round into the caller-held state and returns its
// embedded result. The result — including its Values map — is owned by
// st and overwritten by the next RunInto on the same state: callers that
// keep a value across rounds must copy it. Steady-state RunInto performs
// zero heap allocations.
func (e *Engine) RunInto(readings map[graph.NodeID]float64, st *RoundState) (*RoundResult, error) {
	e.runCompiled(readings, st, st.res.Values, nil)
	e.fillResult(&st.res)
	e.drainStatic()
	return &st.res, nil
}

// RunConcurrent executes len(batch) independent rounds over the shared
// compiled program with a pool of worker goroutines (workers <= 0 selects
// GOMAXPROCS). The program is immutable after NewEngine, so rounds only
// touch per-worker RoundStates; results[i] is batch[i]'s round, each with
// its own freshly allocated Values map.
//
// Cancellation is cooperative between rounds: once ctx is done the
// workers stop claiming new batch entries (the round in flight on each
// worker completes) and RunConcurrent returns ctx.Err() instead of
// results. With context.Background() the behavior — and every computed
// byte — is identical to the pre-context API.
func (e *Engine) RunConcurrent(ctx context.Context, batch []map[graph.NodeID]float64, workers int) ([]*RoundResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	results := make([]*RoundResult, len(batch))
	if len(batch) == 0 {
		return results, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := e.getState()
			defer e.putState(st)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				res := &RoundResult{Values: make(map[graph.NodeID]float64, len(e.prog.finals))}
				e.runCompiled(batch[i], st, res.Values, nil)
				e.fillResult(res)
				e.drainStatic()
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// lossyState is the recyclable scratch of the lossy and asynchronous
// executors: the compiled raw slots with dynamic presence flags and, per
// record slot, the partial records delivered to it, since under faults
// slot occupancy is a runtime property. It also holds every per-round
// array the executors and the collision oracle need, so a round on a
// recycled state allocates only the result it returns.
type lossyState struct {
	raw      []float64
	rawSet   []bool
	contribs [][]contrib // per record slot, ascending by message index
	tmp      []float64
	tmp2     []float64
	tmp3     []float64 // contribution-fold buffer
	covTmp   []uint64
	attempt  []int32 // per message-edge ARQ attempt sequence
	edgeOK   []bool  // per message-edge epoch fence (true = epochs match)

	// The round's snapshot arenas. Every message's payload, and each
	// carried record and coverage set, is a cap-limited sub-slice of
	// these, so it stays valid for the whole round: an append that
	// outgrows an arena moves later snapshots to a new array and leaves
	// earlier ones where they are. getLossyState empties them.
	raws     []carriedRaw
	recs     []carriedRec
	recArena []float64
	covArena []uint64

	// q is the event heap: the collision oracle's slot queue while
	// beginRound resolves contention, then the async event loop's queue.
	q     eventQueue
	async asyncScratch     // AsyncRunner.Run's per-message and per-destination state
	coll  collisionScratch // collisionPlanFor's scratch and resolved plan
}

// newLossyState sizes a state for the engine's program. The snapshot
// arenas get the capacity of one round in which every message carries
// every unit, the most a round can snapshot, since each message
// snapshots once.
func (e *Engine) newLossyState() *lossyState {
	c := e.prog
	nRaws, nRecs, recFloats := 0, 0, 0
	for i := range c.ops {
		if op := &c.ops[i]; op.raw {
			nRaws++
		} else {
			nRecs++
			recFloats += int(op.fnLen)
		}
	}
	return &lossyState{
		raw:      make([]float64, c.nRaw),
		rawSet:   make([]bool, c.nRaw),
		contribs: make([][]contrib, c.nRec),
		tmp:      make([]float64, c.maxRec),
		tmp2:     make([]float64, c.maxRec),
		tmp3:     make([]float64, c.maxRec),
		covTmp:   make([]uint64, c.covWords),
		attempt:  make([]int32, c.nMsgEdges),
		edgeOK:   make([]bool, c.nMsgEdges),
		raws:     make([]carriedRaw, 0, nRaws),
		recs:     make([]carriedRec, 0, nRecs),
		recArena: make([]float64, 0, recFloats),
		covArena: make([]uint64, 0, nRecs*c.covWords),
	}
}

func (e *Engine) getLossyState() *lossyState {
	st := e.lossyPool.Get().(*lossyState)
	for i := range st.rawSet {
		st.rawSet[i] = false
	}
	for i := range st.contribs {
		st.contribs[i] = st.contribs[i][:0]
	}
	for i := range st.attempt {
		st.attempt[i] = 0
	}
	st.raws, st.recs = st.raws[:0], st.recs[:0]
	st.recArena, st.covArena = st.recArena[:0], st.covArena[:0]
	return st
}

func (e *Engine) putLossyState(st *lossyState) { e.lossyPool.Put(st) }

// carve appends src to the arena and returns the copy as a cap-limited
// sub-slice, which no later append can write through.
func carve[T any](arena *[]T, src []T) []T {
	off := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[off:len(*arena):len(*arena)]
}

// fillEdgeFence evaluates the epoch fence over the interned message edges:
// an edge is open only when both endpoints run the executing plan's epoch.
// Schedules without reconfiguration report epoch 0 everywhere, which
// leaves every edge open.
func (e *Engine) fillEdgeFence(st *lossyState, faults Faults) {
	c := e.prog
	pe := faults.PlanEpoch()
	for i := 0; i < c.nMsgEdges; i++ {
		st.edgeOK[i] = faults.NodeEpoch(c.edgeFrom[i]) == pe && faults.NodeEpoch(c.edgeTo[i]) == pe
	}
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
// index (a message delivers at most once, so indices are distinct). When
// deliveries arrive in planned order this is an append.
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

// assemble replays one compiled operand list under partial delivery:
// absent operands are skipped, and a record slot's value is its delivered
// contributions folded in planned message order, ((c0⊕c1)⊕…), before it is
// merged in — the association order of Run's arena, so a fault-free round
// is byte-identical to Run however the arrivals interleaved. It folds
// with the same kernel as runCompiled. Covered sources accumulate into
// covTmp; it reports whether anything was present.
func (st *lossyState) assemble(k agg.Kind, fn agg.Func, ins []unitInput, tmp agg.Record) bool {
	covClear(st.covTmp)
	got := false
	for i := range ins {
		in := &ins[i]
		if in.kind == inRec {
			cs := st.contribs[in.slot]
			if len(cs) == 0 {
				continue
			}
			rec := agg.Record(st.tmp3[:len(tmp)])
			copy(rec, cs[0].rec)
			covOr(st.covTmp, cs[0].cov)
			for _, cc := range cs[1:] {
				mergeRec(k, fn, rec, cc.rec)
				covOr(st.covTmp, cc.cov)
			}
			if !got {
				got = true
				copy(tmp, rec)
			} else {
				mergeRec(k, fn, tmp, rec)
			}
			continue
		}
		if !st.rawSet[in.slot] {
			continue
		}
		v := st.raw[in.slot]
		if !got {
			got = true
			preAggRec(k, fn, tmp, in, v)
		} else {
			op := agg.Record(st.tmp2[:len(tmp)])
			preAggRec(k, fn, op, in, v)
			mergeRec(k, fn, tmp, op)
		}
		covSetBit(st.covTmp, in.srcBit)
	}
	return got
}

// faultRound is the round core both faulty-path executors run on: the
// resolved schedule, the pooled scratch, the round's contention and the
// result under construction. RunLossy (planned-order stop-and-wait) and
// AsyncRunner.Run (timed events) differ only in how they schedule
// attempts and debit batteries over it.
type faultRound struct {
	e      *Engine
	round  int
	faults Faults
	st     *lossyState
	cp     *collisionPlan // nil unless the schedule enables collisions
	res    *LossyResult

	// The round's reports are carved from one block, and their Covered
	// and Missing lists from one block of source ids: destination fi's
	// lists share ids[finals[fi].srcOff:][:len(finals[fi].sources)].
	reps []DeliveryReport
	ids  []graph.NodeID
}

// beginRound sets up one faulty-path round writing into res: a nil
// schedule runs on NoFaults, the epoch fence and the collision oracle are
// resolved, and every live source is seeded with its reading as the
// schedule's CorruptReading leaves it. Callers end() the round to recycle
// its scratch.
func (e *Engine) beginRound(round int, readings map[graph.NodeID]float64, faults Faults, maxRetries int, res *LossyResult) (faultRound, error) {
	if faults == nil {
		faults = NoFaults{}
	}
	c := e.prog
	r := faultRound{e: e, round: round, faults: faults, st: e.getLossyState(), res: res}
	e.fillEdgeFence(r.st, faults)
	cp, err := e.collisionPlanFor(round, faults, maxRetries, r.st)
	if err != nil {
		r.end()
		return faultRound{}, err
	}
	r.cp = cp
	for i, slot := range c.srcSlot {
		if id := c.srcIDs[i]; !r.down(id) {
			r.st.raw[slot] = faults.CorruptReading(round, id, readings[id])
			r.st.rawSet[slot] = true
		}
	}
	res.Values = make(map[graph.NodeID]float64, len(c.finals))
	res.Reports = make(map[graph.NodeID]*DeliveryReport, len(c.finals))
	res.PerNodeJ = make(map[graph.NodeID]float64, c.nEdgeNodes)
	res.Outcomes = make([]EdgeOutcome, 0, len(e.messages))
	r.reps = make([]DeliveryReport, len(c.finals))
	r.ids = make([]graph.NodeID, c.nFinalSrcs)
	res.Messages = len(e.messages)
	return r, nil
}

func (r *faultRound) end() { r.e.putLossyState(r.st) }

// down reports whether n is gated out of the round: crashed, or with a
// depleted battery.
func (r *faultRound) down(n graph.NodeID) bool {
	bat := r.e.battery
	return r.faults.NodeDead(r.round, n) || (bat != nil && bat.Depleted(n))
}

// snapshot gathers message mi's payload from what has reached its sender
// by now: the raw values present and, for each record unit with any input
// present, its assembled partial record and coverage. The payload is
// carved from the round's arenas and stays valid until the round ends;
// body is its size in bytes, which every (re)transmission of the
// message carries.
func (r *faultRound) snapshot(mi int) (raws []carriedRaw, recs []carriedRec, body int) {
	c, st := r.e.prog, r.st
	raw0, rec0 := len(st.raws), len(st.recs)
	ops := c.ops[c.msgOff[mi]:c.msgOff[mi+1]]
	for j, ui := range r.e.messages[mi] {
		op := &ops[j]
		if op.raw {
			if st.rawSet[op.from] {
				st.raws = append(st.raws, carriedRaw{slot: op.to, val: st.raw[op.from]})
				body += int(c.unitBytes[ui])
			}
			continue
		}
		tmp := st.tmp[:op.fnLen]
		if st.assemble(op.alg, op.fn, c.ins[op.lo:op.hi], tmp) {
			st.recs = append(st.recs, carriedRec{
				slot: op.out,
				rec:  carve(&st.recArena, tmp),
				cov:  carve(&st.covArena, st.covTmp),
			})
			body += int(c.unitBytes[ui])
		}
	}
	return st.raws[raw0:len(st.raws):len(st.raws)], st.recs[rec0:len(st.recs):len(st.recs)], body
}

// deliver applies message mi's snapshot at its receiver: raw values fill
// their slots and records join their slots' contributions.
func (r *faultRound) deliver(mi int, raws []carriedRaw, recs []carriedRec) {
	st := r.st
	for _, cr := range raws {
		st.raw[cr.slot] = cr.val
		st.rawSet[cr.slot] = true
	}
	for _, cr := range recs {
		st.contribs[cr.slot] = addContrib(st.contribs[cr.slot], contrib{msgIdx: mi, rec: cr.rec, cov: cr.cov})
	}
}

// attempted books one paid transmission, the attempts-th of its message:
// every attempt after the first is a retry.
func (r *faultRound) attempted(attempts int) {
	r.res.Transmissions++
	if attempts > 1 {
		r.res.Retries++
	}
}

// report builds destination fi's delivery report into the result. A dead
// destination is starved with every source missing; otherwise the final
// merge folds whatever arrived and its coverage splits the sources. finals
// follow Dests() order and each function's source list is ascending, so
// Covered and Missing come out sorted without a per-round sort. Either
// list is nil when empty.
func (r *faultRound) report(fi int, dead bool) *DeliveryReport {
	fo := &r.e.prog.finals[fi]
	rep := &r.reps[fi]
	rep.Dest = fo.dest
	r.res.Reports[fo.dest] = rep
	ids := r.ids[fo.srcOff:][:len(fo.sources):len(fo.sources)]
	if dead {
		rep.DestDead = true
		rep.Starved = true
		if len(ids) > 0 {
			rep.Missing = ids
			copy(rep.Missing, fo.sources)
		}
		return rep
	}
	tmp := r.st.tmp[:fo.fnLen]
	got := r.st.assemble(fo.alg, fo.fn, r.e.prog.ins[fo.lo:fo.hi], tmp)
	nc := 0
	for _, b := range fo.srcBits {
		if covHasBit(r.st.covTmp, b) {
			nc++
		}
	}
	covered, missing := ids[:0:nc], ids[nc:nc:len(ids)]
	for j, s := range fo.sources {
		if covHasBit(r.st.covTmp, fo.srcBits[j]) {
			covered = append(covered, s)
		} else {
			missing = append(missing, s)
		}
	}
	if nc > 0 {
		rep.Covered = covered
	}
	if len(missing) > 0 {
		rep.Missing = missing
	}
	if !got {
		rep.Starved = true
		return rep
	}
	rep.Fresh = len(rep.Missing) == 0
	r.res.Values[fo.dest] = evalRec(fo.alg, fo.fn, tmp)
	return rep
}

package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
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

// assembleInto replays one compiled operand list into tmp: the first
// operand is written, the rest folded with the function's merge — the
// exact sequence (and therefore the exact floats) of the reference
// executor's assembleRecord. Presence was proven at compile time, so
// there are no runtime checks.
func assembleInto(fn agg.Func, ip agg.InPlace, inputs []unitInput, st *RoundState, c *compiled, tmp agg.Record) {
	for i, in := range inputs {
		if in.kind == inRec {
			rec := st.arena[c.recOff[in.slot] : c.recOff[in.slot]+c.recLen[in.slot]]
			if i == 0 {
				copy(tmp, rec)
			} else if ip != nil {
				ip.MergeInto(tmp, rec)
			} else {
				copy(tmp, fn.Merge(tmp, rec))
			}
			continue
		}
		v := st.raw[in.slot]
		if i == 0 {
			if ip != nil {
				ip.PreAggInto(tmp, in.source, v)
			} else {
				copy(tmp, fn.PreAgg(in.source, v))
			}
			continue
		}
		op := st.tmp2[:len(tmp)]
		if ip != nil {
			ip.PreAggInto(op, in.source, v)
			ip.MergeInto(tmp, op)
		} else {
			copy(op, fn.PreAgg(in.source, v))
			copy(tmp, fn.Merge(tmp, op))
		}
	}
}

// runCompiled executes one round of the compiled program over st, writing
// each destination's aggregate into values. With a nil observer it is
// allocation-free.
func (e *Engine) runCompiled(readings map[graph.NodeID]float64, st *RoundState, values map[graph.NodeID]float64, obs Observer) {
	c := e.prog
	for i, slot := range c.srcSlot {
		st.raw[slot] = readings[c.srcIDs[i]]
	}
	for _, idx := range e.order {
		op := &c.ops[idx]
		if op.kind == plan.UnitRaw {
			v := st.raw[op.from]
			st.raw[op.to] = v
			if obs != nil {
				obs(e.units[idx], v, nil)
			}
			continue
		}
		tmp := st.tmp[:op.fnLen]
		assembleInto(op.fn, op.ip, op.inputs, st, c, tmp)
		if obs != nil {
			obs(e.units[idx], 0, append(agg.Record(nil), tmp...))
		}
		out := st.arena[c.recOff[op.out] : c.recOff[op.out]+op.fnLen]
		if !op.outMerge {
			copy(out, tmp)
		} else if op.ip != nil {
			op.ip.MergeInto(out, tmp)
		} else {
			copy(out, op.fn.Merge(out, tmp))
		}
	}
	for i := range c.finals {
		fo := &c.finals[i]
		tmp := st.tmp[:fo.fnLen]
		assembleInto(fo.fn, fo.ip, fo.inputs, st, c, tmp)
		values[fo.dest] = fo.fn.Eval(tmp)
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
// slot occupancy is a runtime property.
type lossyState struct {
	raw      []float64
	rawSet   []bool
	contribs [][]contrib // per record slot, ascending by message index
	tmp      []float64
	tmp2     []float64
	tmp3     []float64 // contribution-fold buffer
	covTmp   []uint64
	attempt  []int32      // per message-edge ARQ attempt sequence
	edgeOK   []bool       // per message-edge epoch fence (true = epochs match)
	raws     []carriedRaw // RunLossy's per-message payload snapshot scratch
	recs     []carriedRec
}

func (e *Engine) newLossyState() *lossyState {
	c := e.prog
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
	return st
}

func (e *Engine) putLossyState(st *lossyState) { e.lossyPool.Put(st) }

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

// mergeRecInto folds src into dst with fn's in-place extension when it has
// one, reproducing dst = fn.Merge(dst, src) bit for bit either way.
func mergeRecInto(fn agg.Func, ip agg.InPlace, dst, src agg.Record) {
	if ip != nil {
		ip.MergeInto(dst, src)
	} else {
		copy(dst, fn.Merge(dst, src))
	}
}

// assemble replays one compiled operand list under partial delivery:
// absent operands are skipped, and a record slot's value is its delivered
// contributions folded in planned message order, ((c0⊕c1)⊕…), before it is
// merged in — the association order of Run's arena, so a fault-free round
// is byte-identical to Run however the arrivals interleaved. Covered
// sources accumulate into covTmp; it reports whether anything was present.
func (st *lossyState) assemble(fn agg.Func, ip agg.InPlace, inputs []unitInput, tmp agg.Record) bool {
	covClear(st.covTmp)
	got := false
	for _, in := range inputs {
		if in.kind == inRec {
			cs := st.contribs[in.slot]
			if len(cs) == 0 {
				continue
			}
			rec := agg.Record(st.tmp3[:len(tmp)])
			copy(rec, cs[0].rec)
			covOr(st.covTmp, cs[0].cov)
			for _, cc := range cs[1:] {
				mergeRecInto(fn, ip, rec, cc.rec)
				covOr(st.covTmp, cc.cov)
			}
			if !got {
				got = true
				copy(tmp, rec)
			} else {
				mergeRecInto(fn, ip, tmp, rec)
			}
			continue
		}
		if !st.rawSet[in.slot] {
			continue
		}
		v := st.raw[in.slot]
		if !got {
			got = true
			if ip != nil {
				ip.PreAggInto(tmp, in.source, v)
			} else {
				copy(tmp, fn.PreAgg(in.source, v))
			}
		} else {
			op := agg.Record(st.tmp2[:len(tmp)])
			if ip != nil {
				ip.PreAggInto(op, in.source, v)
				ip.MergeInto(tmp, op)
			} else {
				copy(op, fn.PreAgg(in.source, v))
				copy(tmp, fn.Merge(tmp, op))
			}
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
	cp, err := e.collisionPlanFor(round, faults, maxRetries, r.st.edgeOK)
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
	res.PerNodeJ = make(map[graph.NodeID]float64)
	res.Outcomes = make([]EdgeOutcome, 0, len(e.messages))
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
// present, its assembled partial record and coverage. It appends to raws
// and recs and returns them with the body size in bytes; every
// (re)transmission of the message carries these bytes.
func (r *faultRound) snapshot(mi int, raws []carriedRaw, recs []carriedRec) ([]carriedRaw, []carriedRec, int) {
	c, st := r.e.prog, r.st
	body := 0
	for _, ui := range r.e.messages[mi] {
		op := &c.ops[ui]
		if op.kind == plan.UnitRaw {
			if st.rawSet[op.from] {
				raws = append(raws, carriedRaw{slot: op.to, val: st.raw[op.from]})
				body += int(c.unitBytes[ui])
			}
			continue
		}
		tmp := st.tmp[:op.fnLen]
		if st.assemble(op.fn, op.ip, op.inputs, tmp) {
			recs = append(recs, carriedRec{
				slot: op.out,
				rec:  append(agg.Record(nil), tmp...),
				cov:  append([]uint64(nil), st.covTmp...),
			})
			body += int(c.unitBytes[ui])
		}
	}
	return raws, recs, body
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
// Covered and Missing come out sorted without a per-round sort.
func (r *faultRound) report(fi int, dead bool) *DeliveryReport {
	fo := &r.e.prog.finals[fi]
	rep := &DeliveryReport{Dest: fo.dest}
	r.res.Reports[fo.dest] = rep
	if dead {
		rep.DestDead = true
		rep.Starved = true
		rep.Missing = append([]graph.NodeID(nil), fo.sources...)
		return rep
	}
	tmp := r.st.tmp[:fo.fnLen]
	got := r.st.assemble(fo.fn, fo.ip, fo.inputs, tmp)
	for j, s := range fo.sources {
		if covHasBit(r.st.covTmp, fo.srcBits[j]) {
			rep.Covered = append(rep.Covered, s)
		} else {
			rep.Missing = append(rep.Missing, s)
		}
	}
	if !got {
		rep.Starved = true
		return rep
	}
	rep.Fresh = len(rep.Missing) == 0
	r.res.Values[fo.dest] = fo.fn.Eval(tmp)
	return rep
}

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
func (e *Engine) runCompiled(round int, readings map[graph.NodeID]float64, st *RoundState, values map[graph.NodeID]float64, obs Observer) {
	c := e.prog
	if adv := e.adversary; adv != nil {
		// Corruption happens here, at the source's own fill slot, so every
		// downstream forward and merge carries the poisoned value.
		for i, slot := range c.srcSlot {
			id := c.srcIDs[i]
			st.raw[slot] = adv.CorruptReading(round, id, readings[id])
		}
	} else {
		for i, slot := range c.srcSlot {
			st.raw[slot] = readings[c.srcIDs[i]]
		}
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
	e.runCompiled(e.nextAdvRound(), readings, st, st.res.Values, nil)
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
	// The whole batch claims a contiguous block of adversary rounds, so
	// batch[i] executes as round base+i however the workers interleave.
	base := e.reserveAdvRounds(len(batch))
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
				e.runCompiled(base+i, batch[i], st, res.Values, nil)
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
// executors: the compiled slot arrays plus dynamic presence flags and
// per-record coverage bitsets, since under faults slot occupancy is a
// runtime property.
type lossyState struct {
	raw     []float64
	rawSet  []bool
	arena   []float64
	recSet  []bool
	cov     []uint64 // nRec consecutive bitsets of covWords words
	tmp     []float64
	tmp2    []float64
	tmp3    []float64 // contribution-fold buffer of the async executor
	covTmp  []uint64
	attempt []int32      // per message-edge ARQ attempt sequence
	edgeOK  []bool       // per message-edge epoch fence (true = epochs match)
	raws    []carriedRaw // per-message payload snapshot scratch
	recs    []carriedRec
}

func (e *Engine) newLossyState() *lossyState {
	c := e.prog
	return &lossyState{
		raw:     make([]float64, c.nRaw),
		rawSet:  make([]bool, c.nRaw),
		arena:   make([]float64, c.arena),
		recSet:  make([]bool, c.nRec),
		cov:     make([]uint64, c.nRec*c.covWords),
		tmp:     make([]float64, c.maxRec),
		tmp2:    make([]float64, c.maxRec),
		tmp3:    make([]float64, c.maxRec),
		covTmp:  make([]uint64, c.covWords),
		attempt: make([]int32, c.nMsgEdges),
		edgeOK:  make([]bool, c.nMsgEdges),
	}
}

func (e *Engine) getLossyState() *lossyState {
	st := e.lossyPool.Get().(*lossyState)
	for i := range st.rawSet {
		st.rawSet[i] = false
	}
	for i := range st.recSet {
		st.recSet[i] = false
	}
	for i := range st.cov {
		st.cov[i] = 0
	}
	for i := range st.attempt {
		st.attempt[i] = 0
	}
	for i := range st.edgeOK {
		st.edgeOK[i] = true
	}
	st.raws = st.raws[:0]
	st.recs = st.recs[:0]
	return st
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

func (e *Engine) putLossyState(st *lossyState) { e.lossyPool.Put(st) }

// mergeRecInto folds src into dst with fn's in-place extension when it has
// one, reproducing dst = fn.Merge(dst, src) bit for bit either way.
func mergeRecInto(fn agg.Func, ip agg.InPlace, dst, src agg.Record) {
	if ip != nil {
		ip.MergeInto(dst, src)
	} else {
		copy(dst, fn.Merge(dst, src))
	}
}

// recCov returns record slot s's coverage bitset.
func (st *lossyState) recCov(c *compiled, s int32) []uint64 {
	return st.cov[int(s)*c.covWords : (int(s)+1)*c.covWords]
}

// assembleLossyInto replays one compiled operand list under partial
// delivery: absent operands are skipped, covered sources are accumulated
// into covTmp, and the merge order over the present operands is exactly
// the reference executor's — which is what keeps fault-free rounds
// byte-identical to Run. It reports whether anything was present.
func assembleLossyInto(fn agg.Func, ip agg.InPlace, inputs []unitInput, st *lossyState, c *compiled, tmp agg.Record, covTmp []uint64) bool {
	covClear(covTmp)
	got := false
	mergeRec := func(rec agg.Record) {
		if !got {
			got = true
			copy(tmp, rec)
		} else if ip != nil {
			ip.MergeInto(tmp, rec)
		} else {
			copy(tmp, fn.Merge(tmp, rec))
		}
	}
	for _, in := range inputs {
		if in.kind == inRec {
			if !st.recSet[in.slot] {
				continue
			}
			mergeRec(st.arena[c.recOff[in.slot] : c.recOff[in.slot]+c.recLen[in.slot]])
			covOr(covTmp, st.recCov(c, in.slot))
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
			op := st.tmp2[:len(tmp)]
			if ip != nil {
				ip.PreAggInto(op, in.source, v)
				ip.MergeInto(tmp, op)
			} else {
				copy(op, fn.PreAgg(in.source, v))
				copy(tmp, fn.Merge(tmp, op))
			}
		}
		covSetBit(covTmp, in.srcBit)
	}
	return got
}

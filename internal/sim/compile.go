package sim

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
)

// This file compiles a plan into a flat, index-based round program at
// NewEngine time. Every (node, source) raw value and every (node, dest)
// partial record the plan can ever hold is interned into a dense slot id,
// and every message unit becomes a unitOp: a raw copy between two slots,
// or a record assembly whose operand list replays the map-based reference
// executor's merge sequence exactly. Ops are laid out in processing order
// and their operands in one flat array in the same order, so a round is
// one linear pass over contiguous memory with no map lookups and no heap
// allocations, and — because the compiled program is immutable after
// construction — arbitrarily many rounds may execute concurrently over
// one Engine (RunConcurrent).
//
// The aggregation algebra is compiled in too. Every raw operand carries
// its source's pre-aggregation parameter (agg.ParamOf), resolved once, and
// every op and final merge carries its function's table-driven agg.Kind,
// whose in-place record algebra the executors switch on: no weight-table
// lookups and no interface calls per operand. Kind 0 marks a function
// outside the table (the sketch kinds, external Funcs), which runs
// through its Func and InPlace methods instead.
//
// The presence checks the reference executor performs at run time are
// discharged statically here: compile replays the processing order over
// presence bits once and proves every read is preceded by a write, so the
// fault-free hot loop carries no conditionals. The lossy executors reuse
// the same program but track presence dynamically, since faults make
// delivery — and therefore slot occupancy — a runtime property.

// inputKind distinguishes the two operand types of a record assembly.
type inputKind int8

const (
	inRaw inputKind = iota // pre-aggregate a raw value slot
	inRec                  // fold the node's accumulated upstream record
)

// unitInput is one operand of a compiled record assembly, in the exact
// order the reference executor merges them.
type unitInput struct {
	param  float64 // inRaw: the source's pre-aggregation parameter
	slot   int32   // raw slot (inRaw) or record slot (inRec)
	source int32   // inRaw: the source whose reading the slot holds
	srcBit int32   // inRaw: dense source index, for coverage bitsets
	kind   inputKind
}

// unitOp is the compiled form of one message unit. Ops are stored in
// processing order: op p compiles unit e.order[p].
type unitOp struct {
	raw      bool     // UnitRaw: copy raw slot from -> to
	outMerge bool     // UnitAgg: out already holds a record when this op runs (static)
	alg      agg.Kind // fn's kernel kind; 0 runs fn's own methods

	from, to int32

	// UnitAgg: assemble operands ins[lo:hi], fold into record slot out.
	lo, hi int32
	out    int32
	fnLen  int32
	fn     agg.Func // runs the record algebra when alg is 0
}

// finalOp is the compiled final merge and evaluation at one destination.
type finalOp struct {
	dest    graph.NodeID
	alg     agg.Kind
	fnLen   int32
	lo, hi  int32 // operands ins[lo:hi]
	fn      agg.Func
	sources []graph.NodeID // fn.Sources(), ascending
	srcBits []int32        // dense source index of each entry of sources
	srcOff  int32          // offset of this final's sources among all finals' sources
}

// compiled is the flat round program shared by every execution path.
type compiled struct {
	nRaw int // raw value slots: dense (node, source) ids
	nRec int // partial record slots: dense (node, dest) ids

	recOff []int32 // record slot -> offset into the record arena, slots side by side
	arena  int     // total arena length (float64 slots)
	maxRec int     // widest record (assembly scratch size)

	srcIDs  []graph.NodeID // sources, ascending (dense source index order)
	srcSlot []int32        // dense source index -> raw slot of (s, s)

	ops       []unitOp    // in processing order
	ins       []unitInput // every op's operands, then every final's
	msgOff    []int32     // message -> its first op; messages are contiguous in ops
	unitBytes []int32     // indexed by unit index: on-wire payload bytes
	finals    []finalOp
	finalOf   map[graph.NodeID]int32 // destination -> index into finals

	msgEdge   []int32 // message index -> dense id of its carrying edge
	nMsgEdges int
	edgeFrom  []graph.NodeID // dense edge id -> endpoints, for epoch fencing
	edgeTo    []graph.NodeID

	covWords int // words per coverage bitset: ceil(len(srcIDs)/64)

	nFinalSrcs int // total length of every final's sources
	nEdgeNodes int // distinct endpoints of the message edges
}

// kernelKind returns f's table-driven kind, or 0 when f's record algebra
// runs through its own methods.
func kernelKind(f agg.Func) agg.Kind {
	if k, err := agg.KindOf(f); err == nil && k.TableDriven() {
		return k
	}
	return 0
}

// compile builds the flat round program. It must run after orderMessages
// (the processing order is final) and fails with the reference executor's
// error for any plan whose reads are not covered by writes — turning the
// old per-round runtime checks into one construction-time proof.
func (e *Engine) compile(cx *construction) error {
	inst := e.Plan.Inst
	c := &compiled{}

	// Slots are interned in first-touch order. A raw value at a node other
	// than its source is keyed by its provider unit and a record by its
	// representative unit; -1 marks a slot not yet interned.
	rawSlotOf := make([]int32, len(e.units))
	recSlotOf := make([]int32, len(e.units))
	for i := range e.units {
		rawSlotOf[i] = -1
		recSlotOf[i] = -1
	}
	c.srcIDs = cx.sources
	srcBit := make([]int32, inst.Net.Len()) // node -> dense source index, or -1
	for i := range srcBit {
		srcBit[i] = -1
	}
	c.srcSlot = make([]int32, len(c.srcIDs))
	for i, s := range c.srcIDs {
		srcBit[s] = int32(i)
		c.srcSlot[i] = int32(i)
	}
	c.nRaw = len(c.srcIDs)
	c.covWords = (len(c.srcIDs) + 63) / 64
	// rawSlot is the slot of source s's value at n, delivered there by
	// prov; -1 if it never arrives (compile then fails its check).
	rawSlot := func(n, s graph.NodeID, prov int32) int32 {
		if n == s {
			return srcBit[s]
		}
		if prov < 0 {
			return -1
		}
		if rawSlotOf[prov] < 0 {
			rawSlotOf[prov] = int32(c.nRaw)
			c.nRaw++
		}
		return rawSlotOf[prov]
	}
	recSlot := func(rep int32, d graph.NodeID) int32 {
		if recSlotOf[rep] < 0 {
			recSlotOf[rep] = int32(c.nRec)
			c.nRec++
			l := int32(agg.RecordLen(inst.SpecByDest[d].Func))
			c.recOff = append(c.recOff, int32(c.arena))
			c.arena += int(l)
			if int(l) > c.maxRec {
				c.maxRec = int(l)
			}
		}
		return recSlotOf[rep]
	}

	// The assembly scratch must fit every destination's record, including
	// destinations whose contributions all arrive raw (no record slot).
	// Every listed source is proven first: RecordLen probes PreAgg on the
	// first one when the Func has no InPlace form.
	for _, sp := range inst.SpecByDest {
		for _, s := range sp.Func.Sources() {
			if _, err := agg.ParamOf(sp.Func, s); err != nil {
				return fmt.Errorf("sim: record for %d: %w", sp.Dest, err)
			}
		}
		if l := agg.RecordLen(sp.Func); l > c.maxRec {
			c.maxRec = l
		}
	}

	// operands appends the operands of destination d's record at node n to
	// ins: the pair walk's contributions in reference merge order, the
	// upstream record folded once, at the first record-form pair.
	operands := func(ins []unitInput, n, d graph.NodeID, pairs []pairInput) ([]unitInput, error) {
		lo := len(ins)
		f := inst.SpecByDest[d].Func
		usedUpstream := false
		for _, pi := range pairs {
			if pi.rec >= 0 {
				if !usedUpstream {
					usedUpstream = true
					ins = append(ins, unitInput{kind: inRec, slot: recSlot(cx.recRep[pi.rec], d)})
				}
				continue
			}
			param, err := agg.ParamOf(f, pi.source)
			if err != nil {
				return nil, fmt.Errorf("sim: record for %d at %d: %w", d, n, err)
			}
			ins = append(ins, unitInput{kind: inRaw, slot: rawSlot(n, pi.source, pi.prov), source: int32(pi.source), srcBit: srcBit[pi.source], param: param})
		}
		if len(ins) == lo {
			return nil, fmt.Errorf("sim: empty record for %d at %d", d, n)
		}
		return ins, nil
	}
	unitOperands := func(ins []unitInput, ui int) ([]unitInput, error) {
		u := e.units[ui]
		return operands(ins, u.Edge.From, u.Node, cx.contribs[cx.contribOff[ui]:cx.contribOff[ui+1]])
	}

	// Intern every slot the units touch in unit index order, the order the
	// program fingerprints pin; the layout pass below then only looks them
	// up.
	c.unitBytes = make([]int32, len(e.units))
	var scratch []unitInput
	for i, u := range e.units {
		c.unitBytes[i] = int32(e.Plan.Bytes(u))
		if u.Kind == plan.UnitRaw {
			rawSlot(u.Edge.From, u.Node, cx.rawUp[i])
			rawSlot(u.Edge.To, u.Node, cx.rawProv[i])
			continue
		}
		var err error
		if scratch, err = unitOperands(scratch[:0], i); err != nil {
			return err
		}
		recSlot(cx.recRep[i], u.Node)
	}

	// Lay the ops and their operands out in processing order, then the
	// final merges in destination order.
	c.ops = make([]unitOp, len(e.order))
	c.ins = make([]unitInput, 0, len(cx.contribs)+len(cx.finalContribs))
	for p, ui := range e.order {
		u := e.units[ui]
		if u.Kind == plan.UnitRaw {
			c.ops[p] = unitOp{raw: true, from: rawSlot(u.Edge.From, u.Node, cx.rawUp[ui]), to: rawSlot(u.Edge.To, u.Node, cx.rawProv[ui])}
			continue
		}
		lo := len(c.ins)
		var err error
		if c.ins, err = unitOperands(c.ins, ui); err != nil {
			return err
		}
		f := inst.SpecByDest[u.Node].Func
		c.ops[p] = unitOp{
			alg:   kernelKind(f),
			lo:    int32(lo),
			hi:    int32(len(c.ins)),
			out:   recSlot(cx.recRep[ui], u.Node),
			fnLen: int32(agg.RecordLen(f)),
			fn:    f,
		}
	}
	c.msgOff = make([]int32, len(e.messages)+1)
	for mi, msg := range e.messages {
		c.msgOff[mi+1] = c.msgOff[mi] + int32(len(msg))
	}
	for fi, d := range cx.dests {
		lo := len(c.ins)
		var err error
		if c.ins, err = operands(c.ins, d, d, cx.finalContribs[cx.finalOff[fi]:cx.finalOff[fi+1]]); err != nil {
			return err
		}
		f := inst.SpecByDest[d].Func
		fo := finalOp{
			dest:    d,
			alg:     kernelKind(f),
			fnLen:   int32(agg.RecordLen(f)),
			lo:      int32(lo),
			hi:      int32(len(c.ins)),
			fn:      f,
			sources: f.Sources(),
		}
		fo.srcBits = make([]int32, len(fo.sources))
		for i, s := range fo.sources {
			fo.srcBits[i] = srcBit[s]
		}
		fo.srcOff = int32(c.nFinalSrcs)
		c.nFinalSrcs += len(fo.sources)
		c.finals = append(c.finals, fo)
	}
	c.finalOf = make(map[graph.NodeID]int32, len(c.finals))
	for i := range c.finals {
		c.finalOf[c.finals[i].dest] = int32(i)
	}

	// Dense ids for the edges the message layout uses, so per-round ARQ
	// attempt counters and receive windows index arrays instead of maps.
	c.msgEdge = make([]int32, len(e.messages))
	edgeID := make([]int32, len(e.Plan.Inst.EdgeList)) // EdgeList index -> dense id + 1
	for mi, msg := range e.messages {
		if len(msg) == 0 {
			// Broadcast-mode placeholder messages carry no units (and the
			// lossy executors reject broadcast engines upstream).
			c.msgEdge[mi] = -1
			continue
		}
		ei := cx.unitEdge[msg[0]]
		if edgeID[ei] == 0 {
			c.nMsgEdges++
			edgeID[ei] = int32(c.nMsgEdges)
			edge := e.units[msg[0]].Edge
			c.edgeFrom = append(c.edgeFrom, edge.From)
			c.edgeTo = append(c.edgeTo, edge.To)
		}
		c.msgEdge[mi] = edgeID[ei] - 1
	}
	endpoint := make([]bool, inst.Net.Len())
	for i := range c.edgeFrom {
		for _, n := range [2]graph.NodeID{c.edgeFrom[i], c.edgeTo[i]} {
			if !endpoint[n] {
				endpoint[n] = true
				c.nEdgeNodes++
			}
		}
	}

	// Static verification: replay the processing order over presence bits,
	// proving every read follows a write (so the fault-free executor skips
	// runtime checks) and fixing each fold's copy-vs-merge decision.
	rawSet := make([]bool, c.nRaw)
	recSet := make([]bool, c.nRec)
	for _, slot := range c.srcSlot {
		rawSet[slot] = true
	}
	checkInputs := func(n, d graph.NodeID, inputs []unitInput) error {
		for _, in := range inputs {
			switch in.kind {
			case inRaw:
				if in.slot < 0 || !rawSet[in.slot] {
					if graph.NodeID(in.source) == n {
						return fmt.Errorf("sim: local reading of %d missing", in.source)
					}
					return fmt.Errorf("sim: raw %d missing at %d for record %d", in.source, n, d)
				}
			case inRec:
				if !recSet[in.slot] {
					return fmt.Errorf("sim: record for %d missing at %d", d, n)
				}
			}
		}
		return nil
	}
	for p := range c.ops {
		op := &c.ops[p]
		u := e.units[e.order[p]]
		if op.raw {
			if op.from < 0 || !rawSet[op.from] {
				return fmt.Errorf("sim: raw %d missing at %d", u.Node, u.Edge.From)
			}
			if op.to >= 0 {
				rawSet[op.to] = true
			}
			continue
		}
		if err := checkInputs(u.Edge.From, u.Node, c.ins[op.lo:op.hi]); err != nil {
			return err
		}
		op.outMerge = recSet[op.out]
		recSet[op.out] = true
	}
	for i := range c.finals {
		fo := &c.finals[i]
		if err := checkInputs(fo.dest, fo.dest, c.ins[fo.lo:fo.hi]); err != nil {
			return err
		}
	}
	e.prog = c
	return nil
}

// covBit sets bit i of the coverage bitset.
func covSetBit(cov []uint64, i int32) { cov[i>>6] |= 1 << uint(i&63) }

// covHasBit reports whether bit i is set.
func covHasBit(cov []uint64, i int32) bool { return cov[i>>6]&(1<<uint(i&63)) != 0 }

// covOr folds src into dst.
func covOr(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// covClear zeroes the bitset.
func covClear(cov []uint64) {
	for i := range cov {
		cov[i] = 0
	}
}

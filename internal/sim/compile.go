package sim

import (
	"cmp"
	"fmt"
	"slices"

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
	finals    []finalOp   // ascending by destination

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
	units := e.units
	c := &compiled{unitBytes: cx.unitBytes}

	// Slots are interned in first-touch order. A raw value at a node other
	// than its source is keyed by its provider unit and a record by its
	// representative unit; -1 marks a slot not yet interned.
	slotOf := make([]int32, 2*len(units))
	for i := range slotOf {
		slotOf[i] = -1
	}
	rawSlotOf, recSlotOf := slotOf[:len(units)], slotOf[len(units):]
	c.srcIDs = cx.sources
	srcBit := make([]int32, len(cx.destOf)) // node -> dense source index, or -1
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
			c.recOff = append(c.recOff, int32(c.arena))
			c.arena += int(cx.info[cx.destOf[d]].recLen)
		}
		return recSlotOf[rep]
	}
	// The assembly scratch must fit every destination's record, including
	// destinations whose contributions all arrive raw (no record slot).
	for _, di := range cx.info {
		c.maxRec = max(c.maxRec, int(di.recLen))
	}

	// A record's operands are its pairs in reference merge order, raw-form
	// pairs one each and the upstream record folded once, at the first
	// record-form pair. Count them per unit and lay the counts out in
	// processing order, then the final merges in destination order, so
	// each unit's operands are written once, straight to their place.
	nOperands := func(pairs []pairInput) int32 {
		n, upstream := int32(0), int32(0)
		for _, pi := range pairs {
			if pi.rec >= 0 {
				upstream = 1
			} else {
				n++
			}
		}
		return n + upstream
	}
	at := make([]int32, len(units)) // record unit -> operand count, then its first operand in c.ins
	nRecUnits := 0
	for i, u := range units {
		if u.Kind == plan.UnitRaw {
			continue
		}
		nRecUnits++
		if at[i] = nOperands(cx.contribs[cx.contribOff[i]:cx.contribOff[i+1]]); at[i] == 0 {
			return fmt.Errorf("sim: empty record for %d at %d", u.Node, u.Edge.From)
		}
	}
	nIns := int32(0)
	c.ops = make([]unitOp, len(e.order))
	for p, ui := range e.order {
		if units[ui].Kind == plan.UnitRaw {
			continue
		}
		n := at[ui]
		at[ui] = nIns
		c.ops[p].lo, c.ops[p].hi = nIns, nIns+n
		nIns += n
	}
	finalAt := nIns
	for fi, d := range cx.dests {
		n := nOperands(cx.finalContribs[cx.finalOff[fi]:cx.finalOff[fi+1]])
		if n == 0 {
			return fmt.Errorf("sim: empty record for %d at %d", d, d)
		}
		nIns += n
	}
	c.ins = make([]unitInput, nIns)
	c.recOff = make([]int32, 0, nRecUnits)

	// operands writes the operands of destination d's record at node n to
	// ins, interning the slots they read.
	operands := func(ins []unitInput, n, d graph.NodeID, pairs []pairInput) {
		k := 0
		usedUpstream := false
		for _, pi := range pairs {
			if pi.rec >= 0 {
				if !usedUpstream {
					usedUpstream = true
					ins[k] = unitInput{kind: inRec, slot: recSlot(cx.recRep[pi.rec], d)}
					k++
				}
				continue
			}
			ins[k] = unitInput{kind: inRaw, slot: rawSlot(n, pi.source, pi.prov), source: int32(pi.source), srcBit: srcBit[pi.source], param: pi.param}
			k++
		}
	}

	// Intern every slot the units touch in unit index order, the order the
	// program fingerprints pin, writing each record's operands as it goes.
	for i, u := range units {
		if u.Kind == plan.UnitRaw {
			rawSlot(u.Edge.From, u.Node, cx.rawUp[i])
			rawSlot(u.Edge.To, u.Node, cx.rawProv[i])
			continue
		}
		operands(c.ins[at[i]:], u.Edge.From, u.Node, cx.contribs[cx.contribOff[i]:cx.contribOff[i+1]])
		recSlot(cx.recRep[i], u.Node)
	}

	// Fill in the ops in processing order, then the final merges in
	// destination order, with their sources' dense indices side by side.
	// Every slot is interned, so the slot functions only look them up.
	// Each op is verified as it is filled: the pass replays the processing
	// order over presence bits, proving every read follows a write (so the
	// fault-free executor skips runtime checks) and fixing each fold's
	// copy-vs-merge decision.
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
	for p, ui := range e.order {
		u := units[ui]
		op := &c.ops[p]
		if u.Kind == plan.UnitRaw {
			op.raw = true
			op.from = rawSlot(u.Edge.From, u.Node, cx.rawUp[ui])
			op.to = rawSlot(u.Edge.To, u.Node, cx.rawProv[ui])
			if op.from < 0 || !rawSet[op.from] {
				return fmt.Errorf("sim: raw %d missing at %d", u.Node, u.Edge.From)
			}
			if op.to >= 0 {
				rawSet[op.to] = true
			}
			continue
		}
		di := &cx.info[cx.destOf[u.Node]]
		op.alg = di.alg
		op.out = recSlot(cx.recRep[ui], u.Node)
		op.fnLen = di.recLen
		op.fn = di.fn
		if err := checkInputs(u.Edge.From, u.Node, c.ins[op.lo:op.hi]); err != nil {
			return err
		}
		op.outMerge = recSet[op.out]
		recSet[op.out] = true
	}
	for _, di := range cx.info {
		c.nFinalSrcs += len(di.sources)
	}
	srcBits := make([]int32, 0, c.nFinalSrcs)
	c.finals = make([]finalOp, len(cx.dests))
	for fi, d := range cx.dests {
		pairs := cx.finalContribs[cx.finalOff[fi]:cx.finalOff[fi+1]]
		lo := finalAt
		finalAt += nOperands(pairs)
		operands(c.ins[lo:finalAt], d, d, pairs)
		if err := checkInputs(d, d, c.ins[lo:finalAt]); err != nil {
			return err
		}
		di := &cx.info[fi]
		srcOff := len(srcBits)
		for _, s := range di.sources {
			srcBits = append(srcBits, srcBit[s])
		}
		c.finals[fi] = finalOp{
			dest:    d,
			alg:     di.alg,
			fnLen:   di.recLen,
			lo:      lo,
			hi:      finalAt,
			fn:      di.fn,
			sources: di.sources,
			srcBits: srcBits[srcOff:len(srcBits):len(srcBits)],
			srcOff:  int32(srcOff),
		}
	}

	c.msgOff = make([]int32, len(e.messages)+1)
	for mi, msg := range e.messages {
		c.msgOff[mi+1] = c.msgOff[mi] + int32(len(msg))
	}
	// Dense ids for the edges the message layout uses, so per-round ARQ
	// attempt counters and receive windows index arrays instead of maps.
	c.msgEdge = make([]int32, len(e.messages))
	edgeID := make([]int32, len(cx.edgeOff)-1) // EdgeList index -> dense id + 1
	c.edgeFrom = make([]graph.NodeID, 0, len(edgeID))
	c.edgeTo = make([]graph.NodeID, 0, len(edgeID))
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
	endpoint := make([]bool, len(cx.destOf))
	for i := range c.edgeFrom {
		for _, n := range [2]graph.NodeID{c.edgeFrom[i], c.edgeTo[i]} {
			if !endpoint[n] {
				endpoint[n] = true
				c.nEdgeNodes++
			}
		}
	}
	e.prog = c
	return nil
}

// finalIndex returns the index into finals of destination d's final merge,
// or -1 if d is no destination.
func (c *compiled) finalIndex(d graph.NodeID) int32 {
	if i, ok := slices.BinarySearchFunc(c.finals, d, func(fo finalOp, d graph.NodeID) int { return cmp.Compare(fo.dest, d) }); ok {
		return int32(i)
	}
	return -1
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

package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

// MaxPayloadBytes is the per-message payload capacity used when
// fragmenting table blobs for dissemination (TinyOS-class radios carry
// ~29 B of payload per packet).
const MaxPayloadBytes = 29

// EncodeNodeTables serializes one node's share of the plan tables into a
// dissemination blob:
//
//	raw count (2) | [src (2) | out-to (2)]...
//	preagg count (2) | [src (2) | dest (2) | weight (4 fixed)]...
//	partial count (2) | [dest (2) | inputs (1) | flags (1) | out-to (2)]...
//	outgoing count (2) | [to (2) | units (1)]...
//
// Pre-aggregation weights come from the instance's aggregation functions.
func EncodeNodeTables(inst *plan.Instance, t *plan.Tables, n graph.NodeID) ([]byte, error) {
	var b []byte
	raw := t.Raw[n]
	pre := t.PreAgg[n]
	part := t.Partial[n]
	out := t.Outgoing[n]
	for _, c := range []int{len(raw), len(pre), len(part), len(out)} {
		if c > math.MaxUint16 {
			return nil, fmt.Errorf("wire: node %d table too large (%d entries)", n, c)
		}
	}

	b = binary.BigEndian.AppendUint16(b, uint16(len(raw)))
	for _, e := range raw {
		b = binary.BigEndian.AppendUint16(b, uint16(e.Source))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Out.To))
	}

	b = binary.BigEndian.AppendUint16(b, uint16(len(pre)))
	for _, e := range pre {
		spec, ok := inst.SpecByDest[e.Dest]
		if !ok {
			return nil, fmt.Errorf("wire: pre-agg entry for unknown destination %d", e.Dest)
		}
		// The stored "weight" is whatever parameterizes w_{d,s}: the
		// per-source coefficient for the weighted families, the threshold
		// for CountAbove, 1 otherwise.
		w, err := agg.ParamOf(spec.Func, e.Source)
		if err != nil {
			return nil, err
		}
		f, err := EncodeFixed(w)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(e.Source))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Dest))
		b = binary.BigEndian.AppendUint32(b, uint32(f))
	}

	b = binary.BigEndian.AppendUint16(b, uint16(len(part)))
	for _, e := range part {
		if e.Inputs > math.MaxUint8 {
			return nil, fmt.Errorf("wire: partial entry with %d inputs", e.Inputs)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(e.Dest))
		b = append(b, byte(e.Inputs))
		var flags byte
		if e.Local {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint16(b, uint16(e.Out.To))
	}

	b = binary.BigEndian.AppendUint16(b, uint16(len(out)))
	for _, e := range out {
		b = binary.BigEndian.AppendUint16(b, uint16(e.Out.To))
		b = append(b, byte(e.Units))
	}
	return b, nil
}

// DisseminationCost reports the cost of installing plan state.
type DisseminationCost struct {
	// Nodes is how many nodes receive state.
	Nodes int
	// Bytes is the total blob payload.
	Bytes int
	// Messages counts the fragments sent (each relayed hop-by-hop).
	Messages int
	// EnergyJ prices every fragment's unicast transmissions along the
	// base-station routing tree.
	EnergyJ float64
}

// CostTables prices disseminating the given nodes' blobs from the base
// station along its shortest-path tree, fragmenting each blob into
// MaxPayloadBytes messages. A nil nodes slice means every node with state.
func CostTables(inst *plan.Instance, t *plan.Tables, model radio.Model, base graph.NodeID, nodes []graph.NodeID) (*DisseminationCost, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	bfs := inst.Net.BFS(base)
	if nodes == nil {
		seen := make(map[graph.NodeID]bool)
		add := func(n graph.NodeID) {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
		for n := range t.Raw {
			add(n)
		}
		for n := range t.PreAgg {
			add(n)
		}
		for n := range t.Partial {
			add(n)
		}
		for n := range t.Outgoing {
			add(n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	}

	cost := &DisseminationCost{}
	for _, n := range nodes {
		blob, err := EncodeNodeTables(inst, t, n)
		if err != nil {
			return nil, err
		}
		hops, err := bfs.Hops(n)
		if err != nil {
			return nil, err
		}
		if hops < 0 {
			return nil, fmt.Errorf("wire: node %d unreachable from base %d", n, base)
		}
		cost.Nodes++
		cost.Bytes += len(blob)
		for off := 0; off < len(blob); off += MaxPayloadBytes {
			end := off + MaxPayloadBytes
			if end > len(blob) {
				end = len(blob)
			}
			cost.Messages++
			if hops > 0 {
				cost.EnergyJ += float64(hops) * model.UnicastJoules(end-off)
			}
		}
	}
	return cost, nil
}

// CostUpdate prices an incremental plan update: only nodes whose table
// content changed between the old and new plans receive fresh blobs.
// Nodes unreachable from the base in the new topology are skipped — a
// dead or partitioned node cannot receive updates (its stale state is
// harmless because no plan traffic reaches it either).
func CostUpdate(oldInst, newInst *plan.Instance, oldT, newT *plan.Tables, model radio.Model, base graph.NodeID) (*DisseminationCost, error) {
	changed, err := ChangedNodes(oldInst, newInst, oldT, newT)
	if err != nil {
		return nil, err
	}
	return CostChanged(newInst, newT, model, base, changed)
}

// CostChanged is CostUpdate over an already computed ChangedNodes list,
// for callers that also need the list itself.
func CostChanged(newInst *plan.Instance, newT *plan.Tables, model radio.Model, base graph.NodeID, changed []graph.NodeID) (*DisseminationCost, error) {
	bfs := newInst.Net.BFS(base)
	reachable := make([]graph.NodeID, 0, len(changed))
	for _, id := range changed {
		if bfs.Reachable(id) {
			reachable = append(reachable, id)
		}
	}
	return CostTables(newInst, newT, model, base, reachable)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

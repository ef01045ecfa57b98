package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// Table-diff frame layout: magic (1 B) | version (1 B) | epoch (4 B) |
// node (2 B) | blob length (2 B) | blob. A diff carries one node's fresh
// routing-table blob (EncodeNodeTables) stamped with the plan epoch it
// belongs to; a node that installs it starts accepting (and emitting)
// data frames of that epoch. The magic is distinct from any unit count a
// data message (EncodeMessage) could start with, so control and data
// frames cannot be confused on the wire.
const (
	TableDiffMagic   = 0xD7
	TableDiffVersion = 1
	// TableDiffHeaderBytes is the fixed framing ahead of the blob.
	TableDiffHeaderBytes = 1 + 1 + 4 + 2 + 2
)

// EncodeTableDiff frames one node's table blob under a plan epoch.
func EncodeTableDiff(epoch uint32, n graph.NodeID, blob []byte) ([]byte, error) {
	if int(n) < 0 || int(n) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: node %d outside table-diff range", n)
	}
	if len(blob) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: table blob of %d bytes too large", len(blob))
	}
	b := make([]byte, 0, TableDiffHeaderBytes+len(blob))
	b = append(b, TableDiffMagic, TableDiffVersion)
	b = binary.BigEndian.AppendUint32(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	b = binary.BigEndian.AppendUint16(b, uint16(len(blob)))
	return append(b, blob...), nil
}

// ChangedNodes diffs two plans' table blobs and returns the nodes whose
// installed state must change, ascending. Nodes outside either instance's
// tables encode to identical empty blobs and never appear.
func ChangedNodes(oldInst, newInst *plan.Instance, oldT, newT *plan.Tables) ([]graph.NodeID, error) {
	n := newInst.Net.Len()
	if o := oldInst.Net.Len(); o > n {
		n = o
	}
	var changed []graph.NodeID
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		newBlob, err := EncodeNodeTables(newInst, newT, id)
		if err != nil {
			return nil, err
		}
		oldBlob, err := EncodeNodeTables(oldInst, oldT, id)
		if err != nil {
			return nil, err
		}
		if !bytesEqual(oldBlob, newBlob) {
			changed = append(changed, id)
		}
	}
	return changed, nil
}

// Schedule is the fault view dissemination runs under; chaos.Injector
// implements it (it is the wire-side mirror of the executor's schedule
// interface — the packages do not import each other).
type Schedule interface {
	NodeDead(round int, n graph.NodeID) bool
	Deliver(round int, e routing.Edge, attempt int) bool
}

// DisseminationAttemptBase offsets the delivery-draw attempt numbers the
// dissemination walker consumes, far above anything the round executors
// use, so installing tables during round r cannot perturb the data-plane
// loss draws of the same round (draws are pure in (round, edge, attempt)).
const DisseminationAttemptBase = 1 << 20

// DisseminationResult is the outcome of one lossy dissemination pass.
type DisseminationResult struct {
	DisseminationCost
	// Updated lists the nodes whose complete blob arrived, ascending;
	// Failed lists the nodes still on their old tables (dead relay, dead
	// target, or a fragment that exhausted its retries).
	Updated []graph.NodeID
	Failed  []graph.NodeID
	// Transmissions counts physical attempts, Retries those beyond each
	// fragment-hop's first.
	Transmissions int
	Retries       int
	// PerNodeJ attributes EnergyJ to the radios that spent it: TX at each
	// hop's sender per attempt, RX at the receiver of a delivered hop.
	// Battery-aware sessions debit these from the energy ledger.
	PerNodeJ map[graph.NodeID]float64
}

// DisseminateTables pushes epoch-stamped table diffs to the given nodes
// over the lossy channel: each node's blob is fragmented into
// MaxPayloadBytes frames that travel hop-by-hop along the base station's
// shortest-path tree under stop-and-wait ARQ with maxRetries
// retransmissions per hop, drawing deliveries from sched at the given
// round (offset by DisseminationAttemptBase). A dead relay or target, an
// unreachable node, or an exhausted retry budget leaves that node on its
// old epoch — reported in Failed so the caller can retry next round.
// Energy is priced like the lossy executor: a clean first attempt costs
// UnicastJoules, anything else TxJoules per attempt plus RxJoules per
// heard frame.
func DisseminateTables(inst *plan.Instance, t *plan.Tables, model radio.Model, base graph.NodeID, nodes []graph.NodeID, epoch uint32, sched Schedule, round, maxRetries int) (*DisseminationResult, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("wire: negative retry budget %d", maxRetries)
	}
	targets := append([]graph.NodeID(nil), nodes...)
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	bfs := inst.Net.BFS(base)
	res := &DisseminationResult{PerNodeJ: make(map[graph.NodeID]float64)}
	attempts := make(map[routing.Edge]int)
	for _, n := range targets {
		blob, err := EncodeNodeTables(inst, t, n)
		if err != nil {
			return nil, err
		}
		frame, err := EncodeTableDiff(epoch, n, blob)
		if err != nil {
			return nil, err
		}
		res.Nodes++
		res.Bytes += len(blob)
		if n == base {
			// The base station installs its own tables for free.
			res.Updated = append(res.Updated, n)
			continue
		}
		path, err := bfs.PathTo(n)
		if err != nil {
			return nil, err
		}
		if path == nil || sched != nil && sched.NodeDead(round, n) {
			res.Failed = append(res.Failed, n)
			continue
		}
		ok := true
		for off := 0; ok && off < len(frame); off += MaxPayloadBytes {
			end := off + MaxPayloadBytes
			if end > len(frame) {
				end = len(frame)
			}
			size := end - off
			for h := 1; h < len(path); h++ {
				e := routing.Edge{From: path[h-1], To: path[h]}
				if sched != nil && sched.NodeDead(round, e.From) {
					ok = false
					break
				}
				recvDead := sched != nil && sched.NodeDead(round, e.To)
				delivered := false
				tries := 0
				for try := 0; try <= maxRetries; try++ {
					tries++
					seq := DisseminationAttemptBase + attempts[e]
					attempts[e]++
					if !recvDead && (sched == nil || sched.Deliver(round, e, seq)) {
						delivered = true
						break
					}
				}
				res.Messages++
				res.Transmissions += tries
				res.Retries += tries - 1
				if delivered && tries == 1 {
					res.EnergyJ += model.UnicastJoules(size)
				} else {
					res.EnergyJ += float64(tries) * model.TxJoules(size)
					if delivered {
						res.EnergyJ += model.RxJoules(size)
					}
				}
				res.PerNodeJ[e.From] += float64(tries) * model.TxJoules(size)
				if delivered {
					res.PerNodeJ[e.To] += model.RxJoules(size)
				}
				if !delivered {
					ok = false
					break
				}
			}
		}
		if ok {
			res.Updated = append(res.Updated, n)
		} else {
			res.Failed = append(res.Failed, n)
		}
	}
	return res, nil
}

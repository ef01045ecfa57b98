package wire

import (
	"math"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/plan"
)

// TestNodeTablesRoundTrip: the dissemination blob must reconstruct every
// table entry a node needs — structure exactly, weights within the
// fixed-point resolution. This is what proves the wire format complete.
func TestNodeTablesRoundTrip(t *testing.T) {
	inst, _, tab := planFixture(t, 21)
	for n := 0; n < inst.Net.Len(); n++ {
		id := graph.NodeID(n)
		blob, err := EncodeNodeTables(inst, tab, id)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeNodeTables(id, blob)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		checkNodeTables(t, inst, tab, id, dec)
	}
}

// checkNodeTables fails t unless dec holds node id's share of tab.
func checkNodeTables(t testing.TB, inst *plan.Instance, tab *plan.Tables, id graph.NodeID, dec *NodeTables) {
	t.Helper()
	if len(dec.Raw) != len(tab.Raw[id]) {
		t.Fatalf("node %d: raw count %d != %d", id, len(dec.Raw), len(tab.Raw[id]))
	}
	for i, e := range tab.Raw[id] {
		if dec.Raw[i] != e {
			t.Fatalf("node %d: raw[%d] = %+v, want %+v", id, i, dec.Raw[i], e)
		}
	}

	if len(dec.PreAgg) != len(tab.PreAgg[id]) {
		t.Fatalf("node %d: preagg count mismatch", id)
	}
	for i, e := range tab.PreAgg[id] {
		d := dec.PreAgg[i]
		if d.Source != e.Source || d.Dest != e.Dest {
			t.Fatalf("node %d: preagg[%d] identity mismatch", id, i)
		}
		wf := inst.SpecByDest[e.Dest].Func.(interface{ Weight(graph.NodeID) float64 })
		if math.Abs(d.Weight-wf.Weight(e.Source)) > Resolution {
			t.Fatalf("node %d: preagg[%d] weight %v, want %v", id, i, d.Weight, wf.Weight(e.Source))
		}
	}

	if len(dec.Partial) != len(tab.Partial[id]) {
		t.Fatalf("node %d: partial count mismatch", id)
	}
	for i, e := range tab.Partial[id] {
		d := dec.Partial[i]
		if d.Dest != e.Dest || d.Inputs != e.Inputs || d.Local != e.Local {
			t.Fatalf("node %d: partial[%d] = %+v, want %+v", id, i, d, e)
		}
		if !e.Local && d.Out != e.Out {
			t.Fatalf("node %d: partial[%d] out mismatch", id, i)
		}
	}

	if len(dec.Outgoing) != len(tab.Outgoing[id]) {
		t.Fatalf("node %d: outgoing count mismatch", id)
	}
	for i, e := range tab.Outgoing[id] {
		if dec.Outgoing[i] != e {
			t.Fatalf("node %d: outgoing[%d] = %+v, want %+v", id, i, dec.Outgoing[i], e)
		}
	}
}

func TestDecodeNodeTablesRejectsCorruption(t *testing.T) {
	inst, _, tab := planFixture(t, 22)
	var id graph.NodeID = -1
	for n := 0; n < inst.Net.Len(); n++ {
		if len(tab.Raw[graph.NodeID(n)]) > 0 {
			id = graph.NodeID(n)
			break
		}
	}
	if id < 0 {
		t.Skip("no node with raw entries")
	}
	blob, err := EncodeNodeTables(inst, tab, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeNodeTables(id, blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := DecodeNodeTables(id, append(append([]byte{}, blob...), 7)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeNodeTables(id, []byte{0xFF}); err == nil {
		t.Error("garbage accepted")
	}
}

package wire

import (
	"encoding/binary"
	"fmt"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

func TestTableDiffRoundTrip(t *testing.T) {
	blob := []byte{0, 1, 0, 0, 0, 0, 0, 0, 9, 9}
	b, err := EncodeTableDiff(0xDEADBEEF, 513, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != TableDiffHeaderBytes+len(blob) {
		t.Fatalf("frame length %d, want %d", len(b), TableDiffHeaderBytes+len(blob))
	}
	if b[0] != TableDiffMagic || b[1] != TableDiffVersion {
		t.Fatalf("header %x %x", b[0], b[1])
	}
	d, err := DecodeTableDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 0xDEADBEEF || d.Node != 513 || !bytesEqual(d.Blob, blob) {
		t.Fatalf("round trip lost data: %+v", d)
	}
	// The decoded blob is a copy, not a view into the frame.
	d.Blob[0] = 0xFF
	if b[TableDiffHeaderBytes] == 0xFF {
		t.Error("decoded blob aliases the frame buffer")
	}
}

func TestTableDiffRejects(t *testing.T) {
	good, err := EncodeTableDiff(1, 2, []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTableDiff(good[:TableDiffHeaderBytes-1]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := DecodeTableDiff(good[:len(good)-1]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := DecodeTableDiff(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xA5
	if _, err := DecodeTableDiff(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = TableDiffVersion + 1
	if _, err := DecodeTableDiff(bad); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := EncodeTableDiff(1, graph.NodeID(1<<17), nil); err == nil {
		t.Error("node beyond uint16 accepted")
	}
	if _, err := EncodeTableDiff(1, 2, make([]byte, 1<<17)); err == nil {
		t.Error("oversized blob accepted")
	}
}

func TestChangedNodesIdenticalPlansChangeNothing(t *testing.T) {
	inst, _, tab := planFixture(t, 6)
	changed, err := ChangedNodes(inst, inst, tab, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("identical plans changed %v", changed)
	}
	// And the priced incremental update is genuinely free — the
	// nothing-changed case must not fall back to pricing every node.
	cost, err := CostUpdate(inst, inst, tab, tab, radio.DefaultModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Nodes != 0 || cost.Bytes != 0 || cost.EnergyJ != 0 {
		t.Fatalf("no-op update priced as %+v", cost)
	}
}

func TestDisseminateTablesCleanChannel(t *testing.T) {
	inst, _, tab := planFixture(t, 7)
	targets := []graph.NodeID{0, 3, 9, 17}
	res, err := DisseminateTables(inst, tab, radio.DefaultModel(), 0, targets, 5, nil, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("clean channel failed nodes %v", res.Failed)
	}
	if len(res.Updated) != len(targets) {
		t.Fatalf("updated %v, want all of %v", res.Updated, targets)
	}
	for i, n := range res.Updated {
		if n != targets[i] {
			t.Fatalf("updated %v not ascending over %v", res.Updated, targets)
		}
	}
	if res.Retries != 0 || res.Transmissions != res.Messages {
		t.Fatalf("clean channel retried: %d tx over %d messages", res.Transmissions, res.Messages)
	}
	if res.EnergyJ <= 0 || res.Bytes <= 0 {
		t.Fatalf("free dissemination: %+v", res.DisseminationCost)
	}
}

func TestDisseminateTablesLossRetriesAndDeadRelay(t *testing.T) {
	// Line 0—1—2—3: reaching node 3 relays through 1 and 2.
	g := graph.NewUndirected(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	specs := []agg.Spec{{Dest: 3, Func: agg.NewWeightedSum(map[graph.NodeID]float64{0: 1, 2: 1})}}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := p.BuildTables()
	if err != nil {
		t.Fatal(err)
	}
	all := []graph.NodeID{1, 2, 3}

	lossy := chaos.New(5).WithUniformLoss(0.4)
	res, err := DisseminateTables(inst, tab, radio.DefaultModel(), 0, all, 2, lossy, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("generous retry budget still failed %v", res.Failed)
	}
	if res.Retries == 0 {
		t.Error("40% loss never forced a dissemination retry")
	}

	// Identical schedules replay identically: dissemination draws are as
	// deterministic as the data plane's.
	again, err := DisseminateTables(inst, tab, radio.DefaultModel(), 0, all, 2, chaos.New(5).WithUniformLoss(0.4), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if again.Retries != res.Retries || again.EnergyJ != res.EnergyJ || again.Transmissions != res.Transmissions {
		t.Fatalf("same seed, different dissemination: %+v vs %+v", again, res)
	}

	// A dead relay severs everything behind it; nodes before it update.
	dead := chaos.New(0).Crash(2, 0)
	res, err = DisseminateTables(inst, tab, radio.DefaultModel(), 0, all, 3, dead, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updated) != 1 || res.Updated[0] != 1 {
		t.Fatalf("updated %v, want only node 1 before the dead relay", res.Updated)
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failed %v, want nodes 2 and 3", res.Failed)
	}
}

func TestDisseminateTablesUnreachable(t *testing.T) {
	// Two components: 0—1 and 2—3. Node 2 has no path from base 0.
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	specs := []agg.Spec{{Dest: 1, Func: agg.NewWeightedSum(map[graph.NodeID]float64{0: 1})}}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := p.BuildTables()
	if err != nil {
		t.Fatal(err)
	}
	res, err := DisseminateTables(inst, tab, radio.DefaultModel(), 0, []graph.NodeID{1, 2}, 1, nil, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updated) != 1 || res.Updated[0] != 1 {
		t.Fatalf("updated %v, want node 1", res.Updated)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 2 {
		t.Fatalf("failed %v, want the unreachable node 2", res.Failed)
	}
	if _, err := DisseminateTables(inst, tab, radio.DefaultModel(), 0, nil, 1, nil, 0, -1); err == nil {
		t.Error("negative retry budget accepted")
	}
}

// TableDiff is a decoded table-diff frame.
type TableDiff struct {
	Epoch uint32
	Node  graph.NodeID
	Blob  []byte
}

// DecodeTableDiff decodes a table-diff frame strictly: anything that does
// not carry the magic, the version, and exactly the declared blob length
// is rejected.
func DecodeTableDiff(b []byte) (TableDiff, error) {
	if len(b) < TableDiffHeaderBytes {
		return TableDiff{}, fmt.Errorf("wire: truncated table diff (%d bytes)", len(b))
	}
	if b[0] != TableDiffMagic {
		return TableDiff{}, fmt.Errorf("wire: bad table-diff magic %#02x", b[0])
	}
	if b[1] != TableDiffVersion {
		return TableDiff{}, fmt.Errorf("wire: unsupported table-diff version %d", b[1])
	}
	d := TableDiff{
		Epoch: binary.BigEndian.Uint32(b[2:6]),
		Node:  graph.NodeID(binary.BigEndian.Uint16(b[6:8])),
	}
	blobLen := int(binary.BigEndian.Uint16(b[8:10]))
	if len(b) != TableDiffHeaderBytes+blobLen {
		return TableDiff{}, fmt.Errorf("wire: table diff declares %d blob bytes, carries %d",
			blobLen, len(b)-TableDiffHeaderBytes)
	}
	d.Blob = append([]byte(nil), b[TableDiffHeaderBytes:]...)
	return d, nil
}

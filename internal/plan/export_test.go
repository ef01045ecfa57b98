package plan

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestExportFigure1C(t *testing.T) {
	inst := fig1cNetwork(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Export()
	if ex.Method != "optimal" {
		t.Errorf("header = %+v", ex)
	}
	if ex.Units != len(p.Units()) || ex.Bytes != p.TotalBodyBytes() {
		t.Errorf("sizes = %+v", ex)
	}
	if len(ex.Edges) != len(inst.EdgeList) {
		t.Fatalf("exported %d edges, want %d", len(ex.Edges), len(inst.EdgeList))
	}
	// Find edge i→j (4→5) and verify its decision.
	found := false
	for _, e := range ex.Edges {
		if e.From == 4 && e.To == 5 {
			found = true
			if len(e.Raw) != 1 || e.Raw[0] != 0 {
				t.Errorf("raw = %v", e.Raw)
			}
			if len(e.Agg) != 2 || e.Agg[0] != 6 || e.Agg[1] != 7 {
				t.Errorf("agg = %v", e.Agg)
			}
		}
	}
	if !found {
		t.Error("edge 4→5 missing from export")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	inst := fig1cNetwork(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back ExportedPlan
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Method != "optimal" || len(back.Edges) != len(inst.EdgeList) {
		t.Errorf("round trip = %+v", back)
	}
}

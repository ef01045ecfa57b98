package sim

import (
	"math"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// TestMergeFallbackOnRealCycle pins the configuration discovered during
// development where the one-message-per-edge merge genuinely hits a
// wait-for cycle (the paper: "such situations seem to be quite rare" —
// here 1 edge out of 687 must split). The fallback must (a) terminate,
// (b) split only minimally, and (c) leave execution exact.
func TestMergeFallbackOnRealCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("150-node instance skipped in -short mode")
	}
	_, g, err := topology.Scaled(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Generate(g, workload.Config{
		DestFraction:   0.25,
		SourcesPerDest: 22, // 0.15 × 150
		MaxHops:        0,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64, g.Len())
	for i := 0; i < g.Len(); i++ {
		readings[graph.NodeID(i)] = float64(i%23) - 11
	}
	res, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	extra := res.Messages - len(inst.EdgeList)
	if extra < 1 {
		t.Skipf("cycle no longer present (messages=%d edges=%d); fallback unexercised",
			res.Messages, len(inst.EdgeList))
	}
	if extra > 4 {
		t.Errorf("fallback split too much: %d extra messages", extra)
	}
	// Golden values despite the split.
	for _, sp := range inst.Specs {
		vals := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			vals[s] = readings[s]
		}
		want, err := agg.Eval(sp.Func, vals)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Values[sp.Dest]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("destination %d = %v, want %v", sp.Dest, got, want)
		}
	}
}

func TestCyclicCore(t *testing.T) {
	// Cycle 1→2→3→1, with 0 feeding in, 4 locked behind it, 5 free.
	d := graph.NewDigraph(6, []graph.Arc{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}, {From: 3, To: 4}})
	core := d.CyclicCore()
	want := map[int]bool{1: true, 2: true, 3: true, 4: true}
	if len(core) != len(want) {
		t.Fatalf("core = %v", core)
	}
	for _, v := range core {
		if !want[v] {
			t.Fatalf("core = %v", core)
		}
	}
	if graph.NewDigraph(3, nil).CyclicCore() != nil {
		t.Error("empty DAG has non-nil core")
	}
}

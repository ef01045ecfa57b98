package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

func TestFixedPointRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, MaxAbsValue/2)
		if math.IsNaN(x) {
			return true
		}
		enc, err := EncodeFixed(x)
		if err != nil {
			return false
		}
		return math.Abs(DecodeFixed(enc)-x) <= Resolution/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedPointRejectsOutOfRange(t *testing.T) {
	if _, err := EncodeFixed(MaxAbsValue * 2); err == nil {
		t.Error("oversized value accepted")
	}
	if _, err := EncodeFixed(math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := EncodeFixed(MaxAbsValue - 1); err != nil {
		t.Errorf("in-range value rejected: %v", err)
	}
	for _, w := range []int32{math.MinInt32, math.MaxInt32} {
		if got, err := EncodeFixed(DecodeFixed(w)); err != nil || got != w {
			t.Errorf("word %d re-encodes to %d, %v", w, got, err)
		}
	}
	if _, err := EncodeFixed(DecodeFixed(math.MinInt32) - Resolution); err == nil {
		t.Error("value below the most negative word accepted")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		units := make([]Unit, n)
		for i := range units {
			kind := plan.UnitRaw
			slots := 1
			if rng.Intn(2) == 1 {
				kind = plan.UnitAgg
				slots = 1 + rng.Intn(3)
			}
			u := Unit{Kind: kind, Node: graph.NodeID(rng.Intn(65000))}
			for s := 0; s < slots; s++ {
				u.Values = append(u.Values, math.Round(rng.NormFloat64()*1000)/256)
			}
			units[i] = u
		}
		b, err := EncodeMessage(units)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(units) {
			t.Fatalf("decoded %d units, want %d", len(got), len(units))
		}
		for i := range units {
			if got[i].Kind != units[i].Kind || got[i].Node != units[i].Node {
				t.Fatalf("unit %d header mismatch", i)
			}
			for s := range units[i].Values {
				if math.Abs(got[i].Values[s]-units[i].Values[s]) > Resolution {
					t.Fatalf("unit %d slot %d: %v != %v", i, s, got[i].Values[s], units[i].Values[s])
				}
			}
		}
	}
}

func TestEncodedLenMatches(t *testing.T) {
	u := Unit{Kind: plan.UnitAgg, Node: 7, Values: []float64{1, 2, 3}}
	b, err := AppendUnit(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if want := unitHeaderBytes + 4*len(u.Values); len(b) != want {
		t.Errorf("encoded %d bytes, want %d", len(b), want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	units := []Unit{{Kind: plan.UnitRaw, Node: 3, Values: []float64{1.5}}}
	b, err := EncodeMessage(units)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"truncated":  b[:len(b)-2],
		"trailing":   append(append([]byte{}, b...), 0xFF),
		"bad kind":   func() []byte { c := append([]byte{}, b...); c[1] = 9; return c }(),
		"zero slots": func() []byte { c := append([]byte{}, b...); c[4] = 0; return c }(),
		"over count": func() []byte { c := append([]byte{}, b...); c[0] = 5; return c }(),
	}
	for name, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestAppendUnitErrors(t *testing.T) {
	if _, err := AppendUnit(nil, Unit{Node: -1, Values: []float64{1}}); err == nil {
		t.Error("negative tag accepted")
	}
	if _, err := AppendUnit(nil, Unit{Node: 1}); err == nil {
		t.Error("empty slots accepted")
	}
	if _, err := AppendUnit(nil, Unit{Node: 1, Values: []float64{math.Inf(1)}}); err == nil {
		t.Error("infinite value accepted")
	}
}

// planFixture builds an optimized plan over a small random network.
func planFixture(t testing.TB, seed int64) (*plan.Instance, *plan.Plan, *plan.Tables) {
	t.Helper()
	l := topology.UniformRandom(40, topology.GDIArea(), seed)
	l.EnsureConnected(50)
	g := l.ConnectivityGraph(50)
	rng := rand.New(rand.NewSource(seed))
	var specs []agg.Spec
	perm := rng.Perm(40)
	for i := 0; i < 6; i++ {
		w := make(map[graph.NodeID]float64)
		for len(w) < 5 {
			w[graph.NodeID(rng.Intn(40))] = 1 + rng.Float64()
		}
		specs = append(specs, agg.Spec{Dest: graph.NodeID(perm[i]), Func: agg.NewWeightedSum(w)})
	}
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
	return inst, p, tab
}

func TestEncodeNodeTablesNonEmpty(t *testing.T) {
	inst, _, tab := planFixture(t, 2)
	nonEmpty := 0
	for n := 0; n < inst.Net.Len(); n++ {
		blob, err := EncodeNodeTables(inst, tab, graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) < 8 { // four 2-byte counts even when empty
			t.Fatalf("node %d blob too short: %d", n, len(blob))
		}
		if len(blob) > 8 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("no node carries state")
	}
}

func TestCostTablesFull(t *testing.T) {
	inst, _, tab := planFixture(t, 3)
	cost, err := CostTables(inst, tab, radio.DefaultModel(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Nodes == 0 || cost.Bytes == 0 || cost.Messages == 0 {
		t.Fatalf("degenerate cost: %+v", cost)
	}
	if cost.EnergyJ <= 0 {
		t.Error("free dissemination")
	}
	// Fragmentation: messages ≥ ceil(bytes / MaxPayloadBytes).
	minMsgs := (cost.Bytes + MaxPayloadBytes - 1) / MaxPayloadBytes
	if cost.Messages < minMsgs {
		t.Errorf("messages %d below fragment floor %d", cost.Messages, minMsgs)
	}
}

func TestCostUpdateCheaperThanFull(t *testing.T) {
	inst, p, tab := planFixture(t, 4)

	// Change one destination's workload: add a source.
	d := inst.Dests()[0]
	var specs []agg.Spec
	for _, sp := range inst.Specs {
		if sp.Dest != d {
			specs = append(specs, sp)
			continue
		}
		w := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			w[s] = 1
		}
		for cand := graph.NodeID(0); ; cand++ {
			if cand != d && !sp.Func.HasSource(cand) {
				w[cand] = 1
				break
			}
		}
		specs = append(specs, agg.Spec{Dest: d, Func: agg.NewWeightedSum(w)})
	}
	newInst, err := plan.NewInstance(inst.Net, inst.Router, specs)
	if err != nil {
		t.Fatal(err)
	}
	newPlan, _, err := plan.Reoptimize(p, newInst)
	if err != nil {
		t.Fatal(err)
	}
	newTab, err := newPlan.BuildTables()
	if err != nil {
		t.Fatal(err)
	}

	full, err := CostTables(newInst, newTab, radio.DefaultModel(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := CostUpdate(inst, newInst, tab, newTab, radio.DefaultModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Bytes >= full.Bytes {
		t.Errorf("incremental update %d B not below full dissemination %d B", incr.Bytes, full.Bytes)
	}
	if incr.Nodes >= full.Nodes {
		t.Errorf("incremental touched %d nodes, full %d", incr.Nodes, full.Nodes)
	}
	if incr.Nodes == 0 {
		t.Error("a real change touched no node")
	}
}

func TestCostTablesUnreachableBase(t *testing.T) {
	// Two-component network: dissemination from a base that cannot reach
	// a stateful node must fail.
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
	if _, err := CostTables(inst, tab, radio.DefaultModel(), 2, nil); err == nil {
		t.Error("unreachable node accepted")
	}
}

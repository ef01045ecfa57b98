package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

// buildInstance creates a random connected instance with mixed aggregate
// kinds to exercise every record layout.
func buildInstance(t testing.TB, rng *rand.Rand, n, nDests, nSrcs int, shared bool) *plan.Instance {
	t.Helper()
	l := topology.UniformRandom(n, topology.GDIArea(), rng.Int63())
	l.EnsureConnected(50)
	g := l.ConnectivityGraph(50)
	var router routing.Router
	if shared {
		st, err := routing.NewSharedTree(g)
		if err != nil {
			t.Fatal(err)
		}
		router = st
	} else {
		router = routing.NewReversePath(g)
	}
	perm := rng.Perm(n)
	var specs []agg.Spec
	for i := 0; i < nDests && i < n; i++ {
		d := graph.NodeID(perm[i])
		srcSet := make(map[graph.NodeID]bool)
		for len(srcSet) < nSrcs {
			srcSet[graph.NodeID(rng.Intn(n))] = true
		}
		srcs := make([]graph.NodeID, 0, len(srcSet))
		for s := range srcSet {
			srcs = append(srcs, s)
		}
		slices.Sort(srcs)
		w := make(map[graph.NodeID]float64)
		for _, s := range srcs {
			w[s] = rng.Float64()*2 - 1
		}
		var f agg.Func
		switch i % 4 {
		case 0:
			f = agg.NewWeightedSum(w)
		case 1:
			f = agg.NewWeightedAverage(w)
		case 2:
			f = agg.NewMin(srcs)
		default:
			f = agg.NewWeightedStdDev(w)
		}
		specs = append(specs, agg.Spec{Dest: d, Func: f})
	}
	inst, err := plan.NewInstance(g, router, specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBuildInstanceDeterministic: every test and benchmark built on
// buildInstance must see the same instance for the same seed, so the
// engine program and a fault-free round's values repeat exactly.
func TestBuildInstanceDeterministic(t *testing.T) {
	digest := func() string {
		rng := rand.New(rand.NewSource(7))
		eng := collideEngine(t, buildInstance(t, rng, 40, 6, 6, false))
		res, err := eng.Run(randomReadings(rng, 40))
		if err != nil {
			t.Fatal(err)
		}
		f := fingerprint{sha256.New()}
		dests := make([]graph.NodeID, 0, len(res.Values))
		for d := range res.Values {
			dests = append(dests, d)
		}
		slices.Sort(dests)
		for _, d := range dests {
			f.int(int64(d))
			f.int(int64(math.Float64bits(res.Values[d])))
		}
		return programFingerprint(t, eng) + hex.EncodeToString(f.h.Sum(nil))
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("two builds from one seed differ:\n%s\n%s", a, b)
	}
}

func randomReadings(rng *rand.Rand, n int) map[graph.NodeID]float64 {
	r := make(map[graph.NodeID]float64, n)
	for i := 0; i < n; i++ {
		r[graph.NodeID(i)] = rng.NormFloat64() * 10
	}
	return r
}

// checkGolden runs the engine and compares every destination value with
// direct out-of-network evaluation.
func checkGolden(t *testing.T, inst *plan.Instance, p *plan.Plan, readings map[graph.NodeID]float64, label string) *RoundResult {
	t.Helper()
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	res, err := eng.Run(readings)
	if err != nil {
		t.Fatalf("%s: Run: %v", label, err)
	}
	for _, sp := range inst.Specs {
		vals := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			vals[s] = readings[s]
		}
		want, err := agg.Eval(sp.Func, vals)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Values[sp.Dest]
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("%s: destination %d computed %v, want %v", label, sp.Dest, got, want)
		}
	}
	return res
}

func TestGoldenValuesAllMethods(t *testing.T) {
	// The central end-to-end correctness test: for random networks,
	// workloads, aggregate kinds, and routers, in-network execution of
	// every planning method must reproduce the exact aggregate at every
	// destination.
	rng := rand.New(rand.NewSource(2007))
	for trial := 0; trial < 12; trial++ {
		shared := trial%2 == 0
		inst := buildInstance(t, rng, 30+rng.Intn(20), 4+rng.Intn(4), 3+rng.Intn(5), shared)
		readings := randomReadings(rng, inst.Net.Len())

		opt, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, inst, opt, readings, "optimal")
		checkGolden(t, inst, plan.Multicast(inst), readings, "multicast")
		checkGolden(t, inst, plan.AggregateASAP(inst), readings, "aggregation")
	}
}

func TestTheorem2OneMessagePerEdge(t *testing.T) {
	// The paper reports its greedy merge always reaches one message per
	// edge. Verify for the optimal plan on random instances.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		inst := buildInstance(t, rng, 40, 6, 5, true)
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		edges := make(map[routing.Edge]bool)
		for _, u := range eng.units {
			edges[u.Edge] = true
		}
		if len(eng.messages) != len(edges) {
			t.Errorf("trial %d: %d messages for %d edges", trial, len(eng.messages), len(edges))
		}
		// Every message must carry units of exactly one edge.
		for _, msg := range eng.messages {
			e0 := eng.units[msg[0]].Edge
			for _, ui := range msg {
				if eng.units[ui].Edge != e0 {
					t.Fatal("message spans multiple edges")
				}
			}
		}
	}
}

func TestMergeSavesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := buildInstance(t, rng, 40, 6, 6, true)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: false})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	rm, err := merged.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := single.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	if rm.EnergyJ >= rs.EnergyJ {
		t.Errorf("merged energy %v not below single-unit energy %v", rm.EnergyJ, rs.EnergyJ)
	}
	if rm.BodyBytes != rs.BodyBytes {
		t.Errorf("merging changed body bytes: %d vs %d", rm.BodyBytes, rs.BodyBytes)
	}
	if rm.Messages >= rs.Messages {
		t.Errorf("merged %d messages, single %d", rm.Messages, rs.Messages)
	}
	// Values identical either way.
	for d, v := range rm.Values {
		if math.Abs(v-rs.Values[d]) > 1e-9 {
			t.Errorf("value at %d differs across merge modes", d)
		}
	}
}

func TestOptimalEnergyBeatsBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		inst := buildInstance(t, rng, 45, 8, 6, true)
		readings := randomReadings(rng, inst.Net.Len())
		energy := func(p *plan.Plan) float64 {
			eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(readings)
			if err != nil {
				t.Fatal(err)
			}
			return res.EnergyJ
		}
		opt, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eOpt := energy(opt)
		if eMc := energy(plan.Multicast(inst)); eOpt > eMc+1e-12 {
			t.Errorf("trial %d: optimal %v J > multicast %v J", trial, eOpt, eMc)
		}
		if eAg := energy(plan.AggregateASAP(inst)); eOpt > eAg+1e-12 {
			t.Errorf("trial %d: optimal %v J > aggregation %v J", trial, eOpt, eAg)
		}
	}
}

func TestFigure1CExecution(t *testing.T) {
	// End-to-end on the paper's worked example.
	g := graph.NewUndirected(9)
	for _, s := range []graph.NodeID{0, 1, 2, 3} {
		g.AddEdge(s, 4, 1)
	}
	g.AddEdge(4, 5, 1)
	for _, d := range []graph.NodeID{6, 7, 8} {
		g.AddEdge(5, d, 1)
	}
	w := func(ids ...graph.NodeID) map[graph.NodeID]float64 {
		m := make(map[graph.NodeID]float64)
		for _, id := range ids {
			m[id] = float64(id) + 0.5
		}
		return m
	}
	specs := []agg.Spec{
		{Dest: 6, Func: agg.NewWeightedSum(w(0, 1, 2, 3))},
		{Dest: 7, Func: agg.NewWeightedSum(w(0, 1, 2))},
		{Dest: 8, Func: agg.NewWeightedSum(w(0))},
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 1, 1: 2, 2: 3, 3: 4}
	res := checkGolden(t, inst, p, readings, "fig1c")
	// 8 directed edges carry traffic (4 source links, i→j, 3 dest links):
	// one message each after merging.
	if res.Messages != 8 {
		t.Errorf("messages = %d, want 8", res.Messages)
	}
}

func TestFloodCorrectAndExpensive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inst := buildInstance(t, rng, 40, 5, 5, false)
	readings := randomReadings(rng, inst.Net.Len())

	fl, err := Flood(inst.Net, inst.Specs, radio.DefaultModel(), readings)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range inst.Specs {
		vals := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			vals[s] = readings[s]
		}
		want, err := agg.Eval(sp.Func, vals)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fl.Values[sp.Dest]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("flood value at %d = %v, want %v", sp.Dest, fl.Values[sp.Dest], want)
		}
	}
	if fl.Broadcasts < inst.Net.Len() {
		t.Errorf("flood used only %d broadcasts in a %d-node network", fl.Broadcasts, inst.Net.Len())
	}

	// Flood must cost far more than the optimal plan on a small workload.
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	if fl.EnergyJ < 2*res.EnergyJ {
		t.Errorf("flood %v J suspiciously close to optimal %v J", fl.EnergyJ, res.EnergyJ)
	}
}

func TestEngineRejectsBadRadio(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := buildInstance(t, rng, 20, 3, 3, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, radio.Model{}, Options{}); err == nil {
		t.Error("invalid radio model accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst := buildInstance(t, rng, 30, 4, 4, true)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	a, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.Messages != b.Messages {
		t.Error("nondeterministic energy accounting")
	}
	for d, v := range a.Values {
		if b.Values[d] != v {
			t.Error("nondeterministic values")
		}
	}
}

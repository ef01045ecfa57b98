package chaos

import (
	"bytes"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/radio"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// scenarioGraph builds the connectivity graph the scenario's shape
// describes, the way the facade builder does.
func scenarioGraph(t testing.TB, sc *Scenario) *graph.Undirected {
	t.Helper()
	model := radio.DefaultModel()
	var l *topology.Layout
	switch sc.Topology {
	case "random":
		l, _ = topology.Scaled(sc.Nodes, sc.TopoSeed)
	case "clustered":
		l, _ = topology.ScaledClustered(sc.Nodes, sc.TopoSeed)
	case "grid":
		l = topology.Grid(sc.GridX, sc.GridY, sc.Spacing)
	default:
		t.Fatalf("unknown topology %q", sc.Topology)
	}
	return l.ConnectivityGraph(model.RangeMeters)
}

// populate draws the scenario's workload and resolves its schedules,
// returning the finished scenario (or an error from PopulateSchedules).
func populate(t testing.TB, sc *Scenario) error {
	t.Helper()
	g := scenarioGraph(t, sc)
	specs, err := workload.Generate(g, workload.Config{
		NumDests:       sc.Dests,
		SourcesPerDest: sc.SourcesPerDest,
		Dispersion:     sc.Dispersion,
		MaxHops:        sc.MaxHops,
		Kind:           workload.FuncKind(sc.FuncKind),
		Seed:           sc.WorkloadSeed,
	})
	if err != nil {
		return err
	}
	var protected, sources []graph.NodeID
	protected = append(protected, specs[0].Dest)
	protected = append(protected, specs[0].Func.Sources()...)
	seen := map[graph.NodeID]bool{}
	for _, sp := range specs {
		for _, s := range sp.Func.Sources() {
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
	}
	return sc.PopulateSchedules(g, protected, sources)
}

func TestScenarioDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := NewScenario(seed), NewScenario(seed)
		if err := populate(t, a); err != nil {
			t.Fatalf("seed %d: populate: %v", seed, err)
		}
		if err := populate(t, b); err != nil {
			t.Fatalf("seed %d: populate twice: %v", seed, err)
		}
		ja, err := a.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: two generations differ:\n%s\n---\n%s", seed, ja, jb)
		}
	}
}

func TestScenarioValidAcrossSeeds(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 60
	}
	families := map[string]int{}
	dims := map[string]int{}
	for seed := int64(1); seed <= n; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := sc.Injector(); err != nil {
			t.Fatalf("seed %d: injector: %v", seed, err)
		}
		families[sc.Family]++
		if sc.Loss > 0 {
			dims["loss"]++
		}
		if sc.Async != nil {
			dims["async"]++
		}
		if len(sc.Outages) > 0 {
			dims["outages"]++
		}
		if sc.Partition != nil {
			dims["partition"]++
		}
		if len(sc.Crashes) > 0 {
			dims["crashes"]++
		}
		if len(sc.Depletions) > 0 {
			dims["depletions"]++
		}
		if sc.Battery != nil {
			dims["battery"]++
		}
		if len(sc.Byzantine) > 0 {
			dims["byzantine"]++
		}
		if sc.Collide != nil {
			dims["collide"]++
		}
		if sc.Sketch != "" {
			dims["sketch"]++
		}
	}
	// Every family and every fault dimension must actually occur, or the
	// fuzzer silently stops covering part of the space.
	for _, f := range []string{FamilyMild, FamilyChurn, FamilyAsync, FamilyBattery, FamilyByzantine, FamilyCollide, FamilyExtreme} {
		if families[f] == 0 {
			t.Errorf("family %q never generated in %d seeds", f, n)
		}
	}
	for _, d := range []string{"loss", "async", "outages", "partition", "crashes", "depletions", "battery", "byzantine", "collide", "sketch"} {
		if dims[d] == 0 {
			t.Errorf("dimension %q never generated in %d seeds", d, n)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := sc.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeScenario(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		data2, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("seed %d: JSON round-trip changed the scenario:\n%s\n---\n%s", seed, data, data2)
		}
	}
}

func TestScenarioCrashTargetsKeepSurvivorsConnected(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		sc := NewScenario(seed)
		if err := populate(t, sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dead := map[int]bool{}
		for _, c := range sc.Crashes {
			if c.Node == 0 {
				t.Fatalf("seed %d: crash schedule touches the base anchor", seed)
			}
			if c.Revive == 0 {
				dead[c.Node] = true
			}
		}
		for _, d := range sc.Depletions {
			dead[d.Node] = true
		}
		if len(dead) == 0 {
			continue
		}
		g := scenarioGraph(t, sc)
		if !aliveConnected(g, dead) {
			t.Fatalf("seed %d: permanent deaths %v disconnect the survivors", seed, dead)
		}
	}
}

func TestDecodeScenarioRejectsBadCompositions(t *testing.T) {
	sc := NewScenario(7)
	if err := populate(t, sc); err != nil {
		t.Fatal(err)
	}
	// Force an illegal composition and make sure the codec rejects it.
	sc.Collide = &CollideDim{}
	sc.Async = &AsyncDim{BaseMS: 5}
	data, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenario(data); err == nil {
		t.Fatal("collide+async repro decoded without error")
	}
	if _, err := DecodeScenario([]byte("{")); err == nil {
		t.Fatal("truncated repro decoded without error")
	}
}

// FuzzDecodeScenario feeds arbitrary bytes (seeded with real repros)
// through the repro codec: it must never panic, and anything it accepts
// must survive a re-encode/decode round trip and injector construction.
func FuzzDecodeScenario(f *testing.F) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := NewScenario(seed)
		if err := populate(f, sc); err != nil {
			f.Fatal(err)
		}
		data, err := sc.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(data)
		if err != nil {
			return
		}
		out, err := sc.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted scenario does not re-encode: %v", err)
		}
		if _, err := DecodeScenario(out); err != nil {
			t.Fatalf("re-encoded scenario rejected: %v", err)
		}
		// The injector may reject schedules Validate cannot see (e.g.
		// lying windows overlapping dead spans) but must not panic.
		_, _ = sc.Injector()
	})
}

package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

// buildSketchInstance is buildInstance with the sketch families mixed in:
// every destination cycles through q-digest median, HLL distinct count,
// and trimmed mean, so a round exercises all three record layouts.
func buildSketchInstance(t testing.TB, rng *rand.Rand, n, nDests, nSrcs int) *plan.Instance {
	t.Helper()
	l := topology.UniformRandom(n, topology.GDIArea(), rng.Int63())
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)
	router := routing.NewReversePath(g)
	perm := rng.Perm(n)
	var specs []agg.Spec
	for i := 0; i < nDests && i < n; i++ {
		d := graph.NodeID(perm[i])
		srcSet := make(map[graph.NodeID]bool)
		for len(srcSet) < nSrcs {
			srcSet[graph.NodeID(rng.Intn(n))] = true
		}
		var srcs []graph.NodeID
		for s := range srcSet {
			srcs = append(srcs, s)
		}
		var f agg.Func
		var err error
		switch i % 3 {
		case 0:
			f, err = agg.NewQDigest(srcs, 6, -50, 50, 0.5)
		case 1:
			f, err = agg.NewHyperLogLog(srcs, 5)
		default:
			f, err = agg.NewTrimmedMean(srcs, 6, -50, 50, 0.25)
		}
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, agg.Spec{Dest: d, Func: f})
	}
	inst, err := plan.NewInstance(g, router, specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func bitsSame(t *testing.T, label string, got, want map[graph.NodeID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for d, wv := range want {
		gv, ok := got[d]
		if !ok {
			t.Fatalf("%s: destination %d missing", label, d)
		}
		if math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: destination %d = %v (%x), want %v (%x)",
				label, d, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
		}
	}
}

// TestSketchExecutorsByteIdentical is the zero-Byzantine differential
// gate of the acceptance criteria: with no adversary, sketch rounds —
// q-digest, HLL, trimmed mean — are byte-identical across the compiled,
// reusable-state, lossy, asynchronous, and concurrent executors and the
// map-based reference.
func TestSketchExecutorsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(616))
	for trial := 0; trial < 4; trial++ {
		n := 25 + rng.Intn(25)
		inst := buildSketchInstance(t, rng, n, 3+rng.Intn(3), 4+rng.Intn(4))
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		readings := randomReadings(rng, n)

		want, err := eng.runMapBased(readings, nil)
		if err != nil {
			t.Fatalf("trial %d: runMapBased: %v", trial, err)
		}
		run, err := eng.Run(readings)
		if err != nil {
			t.Fatal(err)
		}
		bitsSame(t, "Run", run.Values, want.Values)

		st := eng.NewRoundState()
		into, err := eng.RunInto(readings, st)
		if err != nil {
			t.Fatal(err)
		}
		bitsSame(t, "RunInto", into.Values, want.Values)

		lossy, err := eng.RunLossy(0, readings, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bitsSame(t, "RunLossy", lossy.Values, want.Values)
		for _, rep := range lossy.Reports {
			if !rep.Fresh {
				t.Fatalf("trial %d: fault-free lossy round not fresh at %d", trial, rep.Dest)
			}
		}

		runner, err := NewAsyncRunner(eng, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		async, err := runner.Run(0, readings, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsSame(t, "async", async.Values, want.Values)

		conc, err := eng.RunConcurrent(context.Background(), []map[graph.NodeID]float64{readings, readings}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range conc {
			bitsSame(t, "RunConcurrent", r.Values, want.Values)
		}
	}
}

// TestAdversaryCorruptsAtSource checks the injection boundary: a stuck
// node poisons exactly the destinations that source it, identically in
// the lossy and async executors, through the fault schedule's
// CorruptReading.
func TestAdversaryCorruptsAtSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	n := 30
	inst := buildInstance(t, rng, n, 4, 5, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, n)

	// Pick a source some destinations use and others do not.
	var victim graph.NodeID = -1
	uses := func(s graph.NodeID) (with, without []graph.NodeID) {
		for _, sp := range inst.Specs {
			if sp.Func.HasSource(s) {
				with = append(with, sp.Dest)
			} else {
				without = append(without, sp.Dest)
			}
		}
		return
	}
	var poisoned, clean []graph.NodeID
	for _, sp := range inst.Specs {
		for _, s := range sp.Func.Sources() {
			if w, wo := uses(s); len(w) > 0 && len(wo) > 0 {
				victim, poisoned, clean = s, w, wo
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Skip("no source splits the destinations")
	}

	// Stuck far below every honest N(0,10) reading, so the lie moves every
	// builtin family — including min, where a large lie could hide.
	inj := chaos.New(5).WithByzantine(victim, chaos.ByzStuck, -9999, 0, chaos.Forever)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	honest, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	// The fault schedule is the only corruption path: on an otherwise
	// fault-free round the lossy executor corrupts at the source.
	corrupted, err := eng.RunLossy(0, readings, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range poisoned {
		if math.Float64bits(corrupted.Values[d]) == math.Float64bits(honest.Values[d]) {
			t.Errorf("destination %d sourcing %d unchanged under corruption", d, victim)
		}
	}
	for _, d := range clean {
		if math.Float64bits(corrupted.Values[d]) != math.Float64bits(honest.Values[d]) {
			t.Errorf("destination %d does not source %d but moved: %v -> %v",
				d, victim, honest.Values[d], corrupted.Values[d])
		}
	}

	// The async executor corrupts identically from the same schedule.
	runner, err := NewAsyncRunner(eng, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	async, err := runner.Run(0, readings, inj)
	if err != nil {
		t.Fatal(err)
	}
	bitsSame(t, "async(faults)", async.Values, corrupted.Values)
}

package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

// externalFunc hides every extension of the wrapped Func — its kind and
// its InPlace methods — so the compiled program runs it through the
// allocating Func methods, as it would a Func defined outside package agg.
type externalFunc struct{ agg.Func }

// kernelInstance builds a random connected instance whose destinations
// cycle through the seven table-driven kinds, a q-digest and an external
// Func, with random weights and thresholds.
func kernelInstance(t testing.TB, rng *rand.Rand, n, nDests, nSrcs int) *plan.Instance {
	t.Helper()
	l := topology.UniformRandom(n, topology.GDIArea(), rng.Int63())
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)
	perm := rng.Perm(n)
	var specs []agg.Spec
	for i := 0; i < nDests && i < n; i++ {
		srcSet := make(map[graph.NodeID]bool)
		for len(srcSet) < nSrcs {
			srcSet[graph.NodeID(rng.Intn(n))] = true
		}
		var srcs []graph.NodeID
		w := make(map[graph.NodeID]float64)
		for s := range srcSet {
			srcs = append(srcs, s)
			w[s] = rng.Float64()*4 - 2
		}
		var f agg.Func
		switch i % 9 {
		case 0:
			f = agg.NewWeightedSum(w)
		case 1:
			f = agg.NewWeightedAverage(w)
		case 2:
			f = agg.NewWeightedStdDev(w)
		case 3:
			f = agg.NewMin(srcs)
		case 4:
			f = agg.NewMax(srcs)
		case 5:
			f = agg.NewRange(srcs)
		case 6:
			f = agg.NewCountAbove(srcs, rng.NormFloat64())
		case 7:
			q, err := agg.NewQDigest(srcs, 4, -4, 4, rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			f = q
		default:
			f = externalFunc{agg.NewWeightedAverage(w)}
		}
		specs = append(specs, agg.Spec{Dest: graph.NodeID(perm[i]), Func: f})
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// kernelReadings draws readings where half the nodes read +0 or −0, so
// min, max and range merges meet signed zeros in both argument orders.
func kernelReadings(rng *rand.Rand, n int) map[graph.NodeID]float64 {
	r := make(map[graph.NodeID]float64, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			r[graph.NodeID(i)] = 0
		case 1:
			r[graph.NodeID(i)] = math.Copysign(0, -1)
		default:
			r[graph.NodeID(i)] = rng.NormFloat64() * 2
		}
	}
	return r
}

// sameValues compares destination values bit for bit.
func sameValues(got, want map[graph.NodeID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for d, wv := range want {
		gv, ok := got[d]
		if !ok {
			return fmt.Errorf("destination %d missing", d)
		}
		if math.Float64bits(gv) != math.Float64bits(wv) {
			return fmt.Errorf("destination %d = %v (%x), want %v (%x)", d, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
		}
	}
	return nil
}

// observed is one unit an Observer saw.
type observed struct {
	u   plan.Unit
	raw float64
	rec agg.Record
}

func recordObserver(out *[]observed) Observer {
	return func(u plan.Unit, raw float64, rec agg.Record) {
		*out = append(*out, observed{u: u, raw: raw, rec: append(agg.Record(nil), rec...)})
	}
}

// TestKernelMatchesMapBased is the differential gate of the compiled
// aggregation kernel: on every executor, every kind — the seven
// table-driven ones, a q-digest and an external Func without InPlace —
// must reproduce the map-based reference bit for bit, including the
// observed stream of units and the signs of zero results.
func TestKernelMatchesMapBased(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(30)
		inst := kernelInstance(t, rng, n, 9+rng.Intn(9), 3+rng.Intn(6))
		plans := map[string]func() (*plan.Plan, error){
			"optimal":   func() (*plan.Plan, error) { return plan.Optimize(inst) },
			"aggregate": func() (*plan.Plan, error) { return plan.AggregateASAP(inst), nil },
		}
		for name, mk := range plans {
			label := fmt.Sprintf("trial %d %s", trial, name)
			p, err := mk()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			readings := kernelReadings(rng, n)
			var wantObs, gotObs []observed
			want, err := eng.runMapBased(readings, recordObserver(&wantObs))
			if err != nil {
				t.Fatalf("%s: runMapBased: %v", label, err)
			}

			st := eng.NewRoundState()
			into, err := eng.RunInto(readings, st)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameValues(into.Values, want.Values); err != nil {
				t.Fatalf("%s: RunInto: %v", label, err)
			}
			conc, err := eng.RunConcurrent(context.Background(), []map[graph.NodeID]float64{readings, readings}, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range conc {
				if err := sameValues(r.Values, want.Values); err != nil {
					t.Fatalf("%s: RunConcurrent: %v", label, err)
				}
			}
			obs, err := eng.RunObserved(readings, recordObserver(&gotObs))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameValues(obs.Values, want.Values); err != nil {
				t.Fatalf("%s: RunObserved: %v", label, err)
			}
			if len(gotObs) != len(wantObs) {
				t.Fatalf("%s: observed %d units, reference %d", label, len(gotObs), len(wantObs))
			}
			for i := range wantObs {
				g, w := gotObs[i], wantObs[i]
				if g.u != w.u || math.Float64bits(g.raw) != math.Float64bits(w.raw) || !bitsEqual(g.rec, w.rec) {
					t.Fatalf("%s: observed unit %d = %+v, reference %+v", label, i, g, w)
				}
			}
			lossy, err := eng.RunLossy(trial, readings, NoFaults{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameValues(lossy.Values, want.Values); err != nil {
				t.Fatalf("%s: RunLossy: %v", label, err)
			}
			async, err := eng.RunAsync(trial, readings, nil, AsyncConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameValues(async.Values, want.Values); err != nil {
				t.Fatalf("%s: RunAsync: %v", label, err)
			}
			for d, rep := range async.Reports {
				if !rep.Fresh || !lossy.Reports[d].Fresh {
					t.Fatalf("%s: destination %d not fresh on a fault-free round", label, d)
				}
			}
		}
	}
}

func bitsEqual(a, b agg.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKernelKinds pins which functions the compiled program folds through
// the kernel: the seven table-driven kinds, and no others.
func TestKernelKinds(t *testing.T) {
	inst := kernelInstance(t, rand.New(rand.NewSource(5)), 40, 9, 4)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fo := range eng.prog.finals {
		k, err := agg.KindOf(fo.fn)
		tabled := err == nil && k.TableDriven()
		if tabled != (fo.alg != 0) || (tabled && fo.alg != k) {
			t.Errorf("destination %d (%s): kernel kind %d", fo.dest, fo.fn.Name(), fo.alg)
		}
	}
}

// TestRunIntoZeroAllocsMixedKinds extends the zero-allocation contract
// to an engine mixing every kernel kind with the q-digest fallback (the
// external Func allocates by design and is left out).
func TestRunIntoZeroAllocsMixedKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := kernelInstance(t, rng, 50, 8, 5)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := kernelReadings(rng, 50)
	st := eng.NewRoundState()
	if _, err := eng.RunInto(readings, st); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.RunInto(readings, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunInto allocated %v objects/round, want 0", allocs)
	}
}

// extraSourceFunc lists one source more than its weight table holds.
type extraSourceFunc struct {
	agg.Func
	extra graph.NodeID
}

func (f extraSourceFunc) Sources() []graph.NodeID {
	srcs := append(f.Func.Sources(), f.extra)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	return srcs
}

// TestNewEngineRejectsUnknownSource pins that a raw operand whose source
// the function cannot pre-aggregate fails engine construction, where the
// pre-aggregation parameter is resolved, instead of panicking mid-round.
func TestNewEngineRejectsUnknownSource(t *testing.T) {
	g := graph.NewUndirected(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	// The unknown source listed last, then first: the first listed source
	// is the one an arity probe of a Func without InPlace pre-aggregates.
	for _, f := range []extraSourceFunc{
		{Func: agg.NewWeightedSum(map[graph.NodeID]float64{0: 2}), extra: 1},
		{Func: agg.NewWeightedSum(map[graph.NodeID]float64{1: 2}), extra: 0},
	} {
		inst, err := plan.NewInstance(g, routing.NewReversePath(g), []agg.Spec{{Dest: 2, Func: f}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewEngine(plan.Multicast(inst), radio.DefaultModel(), Options{MergeMessages: true})
		if err == nil || !strings.Contains(err.Error(), "not a source") {
			t.Fatalf("extra source %d: NewEngine error %v, want one naming the unknown source", f.extra, err)
		}
	}
}

// TestBuildMessagesRejectsCycle pins that a cyclic message wait-for graph
// is an error, not a panic: two units on different edges that wait for
// each other leave the ready-set Kahn order short.
func TestBuildMessagesRejectsCycle(t *testing.T) {
	e := &Engine{units: make([]plan.Unit, 2), deps: [][]int{{1}, {0}}}
	cx := &construction{unitEdge: []int32{0, 1}}
	err := e.buildMessages(cx, false)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("buildMessages on a cyclic wait-for graph: %v, want a cycle error", err)
	}
}

// TestDepsAcyclic covers the construction-time Theorem 2 check.
func TestDepsAcyclic(t *testing.T) {
	long := make([][]int, 50)
	for u := range long {
		long[u] = []int{(u + 1) % len(long)}
	}
	for _, tc := range []struct {
		name string
		deps [][]int
		want bool
	}{
		{"empty", nil, true},
		{"self-loop", [][]int{nil, {1}}, false},
		{"2-cycle", [][]int{{1}, {0}, nil}, false},
		{"long cycle", long, false},
		{"cycle behind a DAG", [][]int{{1, 2}, {2}, {3}, {4}, {2}}, false},
		// 4 waits on 2 and 3, both of which wait on 1 and 0: shared
		// dependencies reached twice are finished, not a cycle.
		{"DAG with shared deps", [][]int{nil, {0}, {0, 1}, {1, 0}, {2, 3}, {4, 2, 0}}, true},
	} {
		if got := depsAcyclic(tc.deps); got != tc.want {
			t.Errorf("%s: depsAcyclic = %v, want %v", tc.name, got, tc.want)
		}
	}
}

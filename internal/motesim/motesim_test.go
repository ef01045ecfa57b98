package motesim

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/wire"
)

// buildCase creates a random instance with mixed function kinds and an
// optimized plan.
func buildCase(t testing.TB, seed int64, shared bool, nDests, nSrcs int) (*plan.Instance, *plan.Plan, map[graph.NodeID]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := topology.UniformRandom(40, topology.GDIArea(), seed)
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)
	perm := rng.Perm(40)
	var specs []agg.Spec
	for i := 0; i < nDests; i++ {
		d := graph.NodeID(perm[i])
		srcSet := make(map[graph.NodeID]bool)
		for len(srcSet) < nSrcs {
			s := graph.NodeID(rng.Intn(40))
			if s != d {
				srcSet[s] = true
			}
		}
		var srcs []graph.NodeID
		w := make(map[graph.NodeID]float64)
		for s := range srcSet {
			srcs = append(srcs, s)
			w[s] = math.Round((rng.Float64()*2-1)*256) / 256 // exact in fixed point
		}
		var f agg.Func
		switch i % 4 {
		case 0:
			f = agg.NewWeightedSum(w)
		case 1:
			f = agg.NewWeightedAverage(w)
		case 2:
			f = agg.NewMax(srcs)
		default:
			f = agg.NewCountAbove(srcs, 0.5)
		}
		specs = append(specs, agg.Spec{Dest: d, Func: f})
	}
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
	inst, err := plan.NewInstance(g, router, specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64, 40)
	for i := 0; i < 40; i++ {
		readings[graph.NodeID(i)] = math.Round(rng.NormFloat64()*10*256) / 256
	}
	return inst, p, readings
}

func TestMoteExecutionMatchesDirectEvaluation(t *testing.T) {
	// The package's whole point: a round executed purely from decoded
	// dissemination blobs and encoded messages must reproduce every
	// destination's aggregate. Readings and weights are representable in
	// wire fixed point, so the comparison is near-exact.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		inst, p, readings := buildCase(t, rng.Int63(), trial%2 == 0, 5, 5)
		res, err := Run(inst, p, readings)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
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
			got, ok := res.Values[sp.Dest]
			if !ok {
				t.Fatalf("trial %d: destination %d missing", trial, sp.Dest)
			}
			// Per-hop record re-encoding quantizes at 1/256 resolution.
			if math.Abs(got-want) > 0.05*(1+math.Abs(want)) {
				t.Fatalf("trial %d: %s at %d = %v, want %v", trial, sp.Func.Name(), sp.Dest, got, want)
			}
		}
		if res.Messages == 0 || res.WireBytes == 0 {
			t.Fatalf("trial %d: no traffic", trial)
		}
	}
}

func TestMoteMessagesMatchEngineLayout(t *testing.T) {
	// One message per workload edge, exactly as the engine's Theorem 2
	// merge produces.
	inst, p, readings := buildCase(t, 77, true, 6, 6)
	res, err := Run(inst, p, readings)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != len(inst.EdgeList) {
		t.Errorf("mote messages = %d, plan edges = %d", res.Messages, len(inst.EdgeList))
	}
}

func TestMoteBaselinePlans(t *testing.T) {
	// The table machinery must execute the baseline plans too.
	inst, _, readings := buildCase(t, 78, false, 4, 5)
	for _, pl := range []*plan.Plan{plan.Multicast(inst), plan.AggregateASAP(inst)} {
		res, err := Run(inst, pl, readings)
		if err != nil {
			t.Fatalf("%s: %v", pl.Method, err)
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
			if got := res.Values[sp.Dest]; math.Abs(got-want) > 0.05*(1+math.Abs(want)) {
				t.Fatalf("%s: value at %d = %v, want %v", pl.Method, sp.Dest, got, want)
			}
		}
	}
}

// TestKindRegistryMatchesFuncs pins the weight-independent kind algebra
// motes run from their tables to the full Func implementations bit for
// bit, on readings that include ±0 and ±Inf, folding each record both as
// acc⊕r and as r⊕acc: a merge that is not commutative at the signed zeros
// (a min written a < b ? a : b) fails it.
func TestKindRegistryMatchesFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := []graph.NodeID{0, 1, 2, 3}
	w := map[graph.NodeID]float64{0: 0.5, 1: -1.25, 2: 2, 3: 0.75}
	funcs := []agg.Func{
		agg.NewWeightedSum(w),
		agg.NewWeightedAverage(w),
		agg.NewWeightedStdDev(w),
		agg.NewMin(srcs),
		agg.NewMax(srcs),
		agg.NewRange(srcs),
		agg.NewCountAbove(srcs, 0.3),
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	reading := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 3
	}
	sameBits := func(a, b agg.Record) bool {
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
	for _, f := range funcs {
		k, err := agg.KindOf(f)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			vs := make([]float64, len(srcs))
			for i := range vs {
				vs[i] = reading()
			}
			var evals [2]float64
			for si, swap := range []bool{false, true} {
				var full, byKind agg.Record
				for i, s := range srcs {
					v := vs[i]
					pf := f.PreAgg(s, v)
					param, err := agg.ParamOf(f, s)
					if err != nil {
						t.Fatal(err)
					}
					pk, err := agg.PreAggByKind(k, param, v)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(pk, pf) {
						t.Fatalf("%s: PreAggByKind(%v) = %v, func %v", f.Name(), v, pk, pf)
					}
					if full == nil {
						full, byKind = pf, pk
						continue
					}
					if swap {
						full = f.Merge(pf, full)
						byKind, err = agg.MergeByKind(k, pk, byKind)
					} else {
						full = f.Merge(full, pf)
						byKind, err = agg.MergeByKind(k, byKind, pk)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(byKind, full) {
						t.Fatalf("%s (swap=%v): kind record %v != func %v", f.Name(), swap, byKind, full)
					}
				}
				want := f.Eval(full)
				got, err := agg.EvalByKind(k, byKind)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (swap=%v): kind algebra %v != func %v", f.Name(), swap, got, want)
				}
				evals[si] = got
			}
			if math.Float64bits(evals[0]) != math.Float64bits(evals[1]) {
				t.Fatalf("%s: merge not commutative on %v: %v vs %v", f.Name(), vs, evals[0], evals[1])
			}
		}
		if got := len(f.PreAgg(0, 1)); got != k.Slots() {
			t.Errorf("%s: Slots=%d but PreAgg yields %d", f.Name(), k.Slots(), got)
		}
	}
}

func TestKindRegistryErrors(t *testing.T) {
	if _, err := agg.KindOf(nil); err == nil {
		t.Error("nil func accepted")
	}
	if _, err := agg.PreAggByKind(agg.Kind(99), 1, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := agg.MergeByKind(agg.KindWeightedSum, agg.Record{1}, agg.Record{1, 2}); err == nil {
		t.Error("slot mismatch accepted")
	}
	if _, err := agg.EvalByKind(agg.KindWeightedAverage, agg.Record{1}); err == nil {
		t.Error("short record accepted")
	}
	if _, err := agg.ParamOf(agg.NewMin([]graph.NodeID{1}), 9); err == nil {
		t.Error("non-source param accepted")
	}
	if p, err := agg.ParamOf(agg.NewCountAbove([]graph.NodeID{1}, 2.5), 1); err != nil || p != 2.5 {
		t.Errorf("CountAbove param = %v, %v", p, err)
	}
	_ = wire.Resolution // keep the wire import meaningful if tolerances change
}

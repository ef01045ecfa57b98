package sim

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

// linearInstance builds an instance whose every function is a weighted sum
// (suppression requires linearity).
func linearInstance(t testing.TB, rng *rand.Rand, n, nDests, nSrcs int) *plan.Instance {
	t.Helper()
	l := topology.UniformRandom(n, topology.GDIArea(), rng.Int63())
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)
	perm := rng.Perm(n)
	var specs []agg.Spec
	for i := 0; i < nDests && i < n; i++ {
		d := graph.NodeID(perm[i])
		w := make(map[graph.NodeID]float64)
		for len(w) < nSrcs {
			w[graph.NodeID(rng.Intn(n))] = rng.Float64()*2 - 1
		}
		specs = append(specs, agg.Spec{Dest: d, Func: agg.NewWeightedSum(w)})
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSuppressorRejectsNonlinear(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	specs := []agg.Spec{{Dest: 2, Func: agg.NewMin([]graph.NodeID{0})}}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone); err == nil {
		t.Error("nonlinear workload accepted")
	}
}

func TestSuppressionDeltaValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		inst := linearInstance(t, rng, 35, 6, 6)
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{PolicyNone, PolicyConservative, PolicyMedium, PolicyAggressive} {
			sup, err := NewSuppressor(p, radio.DefaultModel(), pol)
			if err != nil {
				t.Fatal(err)
			}
			// Random change set.
			deltas := make(map[graph.NodeID]float64)
			for n := 0; n < inst.Net.Len(); n++ {
				if rng.Float64() < 0.3 {
					deltas[graph.NodeID(n)] = rng.NormFloat64()
				}
			}
			res, err := sup.Round(deltas)
			if err != nil {
				t.Fatalf("policy %v: %v", pol, err)
			}
			// Exact expectation: Δf_d = Σ_s w_{d,s}·Δv_s over changed sources.
			for _, sp := range inst.Specs {
				want := 0.0
				any := false
				ws := sp.Func.(*agg.WeightedSum)
				for _, s := range ws.Sources() {
					if dv, ok := deltas[s]; ok {
						rec := ws.PreAgg(s, dv)
						want += rec[0]
						any = true
					}
				}
				got, present := res.DeltaValues[sp.Dest]
				if any != present {
					t.Fatalf("policy %v: destination %d presence = %v, want %v", pol, sp.Dest, present, any)
				}
				if any && math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("policy %v: delta at %d = %v, want %v", pol, sp.Dest, got, want)
				}
			}
		}
	}
}

func TestSuppressionNoChangesCostsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst := linearInstance(t, rng, 30, 5, 5)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSuppressor(p, radio.DefaultModel(), PolicyAggressive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Round(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ != 0 || res.Messages != 0 || res.RawUnits != 0 || res.RecordUnits != 0 {
		t.Errorf("idle round cost: %+v", res)
	}
}

func TestSuppressionNeverExceedsFullRecomputationWithoutOverride(t *testing.T) {
	// With PolicyNone the suppressed round transmits a subset of the
	// default plan's units, so it can never cost more.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		inst := linearInstance(t, rng, 35, 6, 6)
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		full, err := eng.Run(randomReadings(rng, inst.Net.Len()))
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone)
		if err != nil {
			t.Fatal(err)
		}
		for _, prob := range []float64{0.05, 0.3, 0.8, 1.0} {
			deltas := make(map[graph.NodeID]float64)
			for n := 0; n < inst.Net.Len(); n++ {
				if rng.Float64() < prob {
					deltas[graph.NodeID(n)] = rng.NormFloat64()
				}
			}
			res, err := sup.Round(deltas)
			if err != nil {
				t.Fatal(err)
			}
			if res.EnergyJ > full.EnergyJ+1e-12 {
				t.Errorf("trial %d p=%v: suppressed %v J > full %v J", trial, prob, res.EnergyJ, full.EnergyJ)
			}
		}
	}
}

func TestSuppressionAllChangedEqualsFullPlanUnits(t *testing.T) {
	// When every source changes and no override fires, the suppressed
	// round must transmit exactly the default plan's units.
	rng := rand.New(rand.NewSource(44))
	inst := linearInstance(t, rng, 30, 5, 5)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make(map[graph.NodeID]float64)
	for _, s := range inst.Sources() {
		deltas[s] = 1
	}
	res, err := sup.Round(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.RawUnits+res.RecordUnits, len(p.Units()); got != want {
		t.Errorf("all-changed units = %d, plan units = %d", got, want)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.Run(randomReadings(rng, inst.Net.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EnergyJ-full.EnergyJ) > 1e-12 {
		t.Errorf("all-changed energy %v != full energy %v", res.EnergyJ, full.EnergyJ)
	}
}

func TestOverrideHelpsAtLowChangeProbability(t *testing.T) {
	// The paper's Figure 7 shape at the low end: with few changes,
	// aggressive override should not cost more than no override on
	// average, and typically saves.
	rng := rand.New(rand.NewSource(45))
	inst := linearInstance(t, rng, 45, 12, 10)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	none, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	aggr, err := NewSuppressor(p, radio.DefaultModel(), PolicyAggressive)
	if err != nil {
		t.Fatal(err)
	}
	var eNone, eAggr float64
	overrides := 0
	for round := 0; round < 60; round++ {
		deltas := make(map[graph.NodeID]float64)
		for n := 0; n < inst.Net.Len(); n++ {
			if rng.Float64() < 0.05 {
				deltas[graph.NodeID(n)] = rng.NormFloat64()
			}
		}
		rn, err := none.Round(deltas)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := aggr.Round(deltas)
		if err != nil {
			t.Fatal(err)
		}
		eNone += rn.EnergyJ
		eAggr += ra.EnergyJ
		overrides += ra.Overrides
	}
	if overrides == 0 {
		t.Error("aggressive policy never fired at p=0.05")
	}
	if eAggr > eNone*1.02 {
		t.Errorf("aggressive override %v J worse than none %v J at p=0.05", eAggr, eNone)
	}
}

func TestPolicyStringAndThreshold(t *testing.T) {
	if PolicyNone.String() != "none" || PolicyAggressive.String() != "aggressive" ||
		PolicyMedium.String() != "medium" || PolicyConservative.String() != "conservative" {
		t.Error("policy names wrong")
	}
	if !(PolicyConservative.threshold() < PolicyMedium.threshold() &&
		PolicyMedium.threshold() < PolicyAggressive.threshold()) {
		t.Error("thresholds not ordered")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func TestSuppressorRejectsOutOfRangeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	inst := linearInstance(t, rng, 20, 3, 3)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Round(map[graph.NodeID]float64{99: 1}); err == nil {
		t.Error("out-of-range delta accepted")
	}
}

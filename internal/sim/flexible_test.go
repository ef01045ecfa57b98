package sim

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

func TestFlexibleDeltaValuesStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	inst := linearInstance(t, rng, 40, 8, 8)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{PolicyConservative, PolicyMedium, PolicyAggressive} {
		sup, err := NewSuppressorFlexible(p, radio.DefaultModel(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if !sup.Flexible {
			t.Fatal("flexible flag not set")
		}
		for trial := 0; trial < 10; trial++ {
			deltas := make(map[graph.NodeID]float64)
			for n := 0; n < inst.Net.Len(); n++ {
				if rng.Float64() < 0.25 {
					deltas[graph.NodeID(n)] = rng.NormFloat64()
				}
			}
			res, err := sup.Round(deltas)
			if err != nil {
				t.Fatalf("policy %v: %v", pol, err)
			}
			// Exactness of delta maintenance (the Round self-check already
			// verified coverage; this verifies the value algebra).
			for _, sp := range inst.Specs {
				wf := sp.Func.(interface{ Weight(graph.NodeID) float64 })
				want, any := 0.0, false
				for _, s := range sp.Func.Sources() {
					if dv, ok := deltas[s]; ok {
						want += wf.Weight(s) * dv
						any = true
					}
				}
				got, present := res.DeltaValues[sp.Dest]
				if any != present || (any && math.Abs(got-want) > 1e-9*(1+math.Abs(want))) {
					t.Fatalf("policy %v: delta at %d = %v (present=%v), want %v", pol, sp.Dest, got, present, want)
				}
			}
		}
	}
}

func TestFlexibleNeverWorseThanDefaultOverride(t *testing.T) {
	// Re-folding downstream can only recover aggregation opportunities the
	// default override mode forfeits; across many rounds the flexible mode
	// must not spend more energy on average.
	rng := rand.New(rand.NewSource(72))
	inst := linearInstance(t, rng, 45, 10, 10)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewSuppressor(p, radio.DefaultModel(), PolicyAggressive)
	if err != nil {
		t.Fatal(err)
	}
	flex, err := NewSuppressorFlexible(p, radio.DefaultModel(), PolicyAggressive)
	if err != nil {
		t.Fatal(err)
	}
	var eDef, eFlex float64
	for round := 0; round < 50; round++ {
		deltas := make(map[graph.NodeID]float64)
		for n := 0; n < inst.Net.Len(); n++ {
			if rng.Float64() < 0.2 {
				deltas[graph.NodeID(n)] = rng.NormFloat64()
			}
		}
		rd, err := def.Round(deltas)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := flex.Round(deltas)
		if err != nil {
			t.Fatal(err)
		}
		eDef += rd.EnergyJ
		eFlex += rf.EnergyJ
	}
	if eFlex > eDef*1.01 {
		t.Errorf("flexible mode %v J worse than default %v J", eFlex, eDef)
	}
}

func TestFlexibleExtraState(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	inst := linearInstance(t, rng, 40, 8, 8)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSuppressorFlexible(p, radio.DefaultModel(), PolicyMedium)
	if err != nil {
		t.Fatal(err)
	}
	extra := sup.ExtraStateEntries()
	if extra < 0 {
		t.Fatalf("negative extra state %d", extra)
	}
	// Upper bound: strictly fewer than total path-node slots.
	limit := 0
	for _, path := range inst.Paths {
		limit += len(path)
	}
	if extra >= limit {
		t.Errorf("extra state %d exceeds path-node total %d", extra, limit)
	}
}

func TestFlexibleIdenticalWithPolicyNone(t *testing.T) {
	// Without overrides the two modes are the same machine.
	rng := rand.New(rand.NewSource(74))
	inst := linearInstance(t, rng, 30, 5, 5)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSuppressor(p, radio.DefaultModel(), PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuppressorFlexible(p, radio.DefaultModel(), PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	deltas := map[graph.NodeID]float64{inst.Sources()[0]: 1.5, inst.Sources()[1]: -2}
	ra, err := a.Round(deltas)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Round(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if ra.EnergyJ != rb.EnergyJ || ra.Messages != rb.Messages ||
		ra.RawUnits != rb.RawUnits || ra.RecordUnits != rb.RecordUnits {
		t.Errorf("modes differ without overrides: %+v vs %+v", ra, rb)
	}
}

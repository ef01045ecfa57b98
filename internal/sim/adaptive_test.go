package sim

import (
	"math/rand"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

func adaptiveFixture(t *testing.T) (*plan.Instance, *plan.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	inst := linearInstance(t, rng, 45, 10, 10)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst, p
}

func runDeltas(rng *rand.Rand, n int, prob float64) map[graph.NodeID]float64 {
	deltas := make(map[graph.NodeID]float64)
	for i := 0; i < n; i++ {
		if rng.Float64() < prob {
			deltas[graph.NodeID(i)] = rng.NormFloat64()
		}
	}
	return deltas
}

func TestAdaptiveConvergesToVolatility(t *testing.T) {
	inst, p := adaptiveFixture(t)
	a, err := NewAdaptiveSuppressor(p, radio.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if a.CurrentPolicy() != PolicyAggressive {
		t.Errorf("initial policy = %v, want aggressive (quiet prior)", a.CurrentPolicy())
	}
	rng := rand.New(rand.NewSource(1))
	// Quiet phase: stays aggressive.
	for round := 0; round < 15; round++ {
		if _, _, err := a.Round(runDeltas(rng, inst.Net.Len(), 0.03)); err != nil {
			t.Fatal(err)
		}
	}
	if a.CurrentPolicy() != PolicyAggressive {
		t.Errorf("quiet phase policy = %v (rate %v)", a.CurrentPolicy(), a.rate)
	}
	// Storm: everything changes — adaptive must back off to no override.
	for round := 0; round < 15; round++ {
		if _, _, err := a.Round(runDeltas(rng, inst.Net.Len(), 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	if a.CurrentPolicy() != PolicyNone {
		t.Errorf("storm phase policy = %v (rate %v)", a.CurrentPolicy(), a.rate)
	}
	// Calm returns: the EWMA decays back toward aggressive.
	for round := 0; round < 25; round++ {
		if _, _, err := a.Round(runDeltas(rng, inst.Net.Len(), 0.02)); err != nil {
			t.Fatal(err)
		}
	}
	if a.CurrentPolicy() != PolicyAggressive {
		t.Errorf("recovered policy = %v (rate %v)", a.CurrentPolicy(), a.rate)
	}
}

func TestAdaptiveTracksBestFixedPolicy(t *testing.T) {
	// Across a volatility sweep, adaptive must stay close to the best
	// fixed policy at each level (within a small slack), never collapsing
	// to the worst.
	inst, p := adaptiveFixture(t)
	model := radio.DefaultModel()
	for _, prob := range []float64{0.03, 0.3} {
		fixed := make(map[Policy]float64)
		for _, pol := range []Policy{PolicyNone, PolicyConservative, PolicyMedium, PolicyAggressive} {
			s, err := NewSuppressor(p, model, pol)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			total := 0.0
			for round := 0; round < 40; round++ {
				r, err := s.Round(runDeltas(rng, inst.Net.Len(), prob))
				if err != nil {
					t.Fatal(err)
				}
				total += r.EnergyJ
			}
			fixed[pol] = total
		}
		a, err := NewAdaptiveSuppressor(p, model)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		adaptive := 0.0
		for round := 0; round < 40; round++ {
			r, _, err := a.Round(runDeltas(rng, inst.Net.Len(), prob))
			if err != nil {
				t.Fatal(err)
			}
			adaptive += r.EnergyJ
		}
		best, worst := fixed[PolicyNone], fixed[PolicyNone]
		for _, e := range fixed {
			if e < best {
				best = e
			}
			if e > worst {
				worst = e
			}
		}
		if adaptive > best*1.05 {
			t.Errorf("p=%v: adaptive %v J, best fixed %v J", prob, adaptive, best)
		}
	}
}

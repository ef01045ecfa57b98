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

// TestMilestonePlansGoldenValues verifies that plans optimized over
// milestone (virtual) edges still deliver exact aggregates end to end,
// at every milestone density.
func TestMilestonePlansGoldenValues(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	l := topology.UniformRandom(40, topology.GDIArea(), 81)
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)

	perm := rng.Perm(40)
	var specs []agg.Spec
	for i := 0; i < 6; i++ {
		w := make(map[graph.NodeID]float64)
		for len(w) < 6 {
			w[graph.NodeID(rng.Intn(40))] = rng.Float64()*2 - 1
		}
		specs = append(specs, agg.Spec{Dest: graph.NodeID(perm[i]), Func: agg.NewWeightedSum(w)})
	}
	readings := randomReadings(rng, g.Len())

	keeps := []struct {
		name string
		keep routing.KeepFunc
	}{
		{"all", routing.KeepAll},
		{"half", routing.KeepEveryKth(2)},
		{"eighth", routing.KeepEveryKth(8)},
		{"none", routing.KeepNone},
	}
	var prevEnergy float64
	for _, k := range keeps {
		mr := routing.NewMilestoneRouter(g, routing.NewReversePath(g), k.keep)
		inst, err := plan.NewInstance(g, mr, specs)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{
			MergeMessages: true,
			EdgeHops:      mr.EdgeHops,
		})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		res, err := eng.Run(readings)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for _, sp := range specs {
			vals := make(map[graph.NodeID]float64)
			for _, s := range sp.Func.Sources() {
				vals[s] = readings[s]
			}
			want, err := agg.Eval(sp.Func, vals)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Values[sp.Dest]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s: destination %d = %v, want %v", k.name, sp.Dest, got, want)
			}
		}
		if res.EnergyJ <= 0 {
			t.Fatalf("%s: free round", k.name)
		}
		_ = prevEnergy
		prevEnergy = res.EnergyJ
	}
}

// TestMilestoneEdgeHopsSane checks the hop estimator agrees with shortest
// paths and never reports less than one hop.
func TestMilestoneEdgeHopsSane(t *testing.T) {
	g := topology.Grid(6, 1, 10).ConnectivityGraph(15) // a line
	mr := routing.NewMilestoneRouter(g, routing.NewReversePath(g), routing.KeepNone)
	if h := mr.EdgeHops(routing.Edge{From: 0, To: 5}); h != 5 {
		t.Errorf("hops 0→5 = %d, want 5", h)
	}
	if h := mr.EdgeHops(routing.Edge{From: 2, To: 3}); h != 1 {
		t.Errorf("hops 2→3 = %d, want 1", h)
	}
	if h := mr.EdgeHops(routing.Edge{From: 2, To: 2}); h != 1 {
		t.Errorf("degenerate hops = %d, want clamp to 1", h)
	}
}

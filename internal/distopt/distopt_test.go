package distopt

import (
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

func fixture(t testing.TB, seed int64, shared bool) *plan.Instance {
	t.Helper()
	l := topology.UniformRandom(45, topology.GDIArea(), seed)
	l.EnsureConnected(50)
	g := l.ConnectivityGraph(50)
	specs, err := workload.Generate(g, workload.Config{
		NumDests: 8, SourcesPerDest: 7, Dispersion: 0.9, MaxHops: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
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
	return inst
}

func TestDistributedMatchesCentralized(t *testing.T) {
	// The package's whole claim: nodes solving only their own edges from
	// locally learned state reproduce the centralized optimum exactly.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		inst := fixture(t, rng.Int63(), trial%2 == 0)
		central, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := Optimize(inst, radio.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dist.Plan.TotalBodyBytes(), central.TotalBodyBytes(); got != want {
			t.Fatalf("trial %d: distributed cost %d != centralized %d", trial, got, want)
		}
		for i, cSol := range central.Sol {
			e := central.Inst.EdgeList[i]
			dSol := dist.Plan.Sol[i]
			if dSol == nil {
				t.Fatalf("trial %d: edge %v missing from distributed plan", trial, e)
			}
			for s := range cSol.Raw {
				if !dSol.Raw[s] {
					t.Fatalf("trial %d: edge %v raw sets differ", trial, e)
				}
			}
			for d := range cSol.Agg {
				if !dSol.Agg[d] {
					t.Fatalf("trial %d: edge %v agg sets differ", trial, e)
				}
			}
		}
	}
}

func TestSetupCostAccounting(t *testing.T) {
	inst := fixture(t, 7, true)
	res, err := Optimize(inst, radio.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	totalPairs := 0
	for i := range inst.EdgeList {
		totalPairs += len(inst.Pairs(i))
	}
	if res.Setup.Units != totalPairs {
		t.Errorf("setup units = %d, want %d (one per pair-edge crossing)", res.Setup.Units, totalPairs)
	}
	if res.Setup.Messages != len(inst.EdgeList) {
		t.Errorf("setup messages = %d, want one per edge %d", res.Setup.Messages, len(inst.EdgeList))
	}
	if res.Setup.Bytes != totalPairs*setupUnitBytes {
		t.Errorf("setup bytes = %d", res.Setup.Bytes)
	}
	if res.Setup.EnergyJ <= 0 {
		t.Error("free setup")
	}
	if res.NodesSolving == 0 || res.NodesSolving > inst.Net.Len() {
		t.Errorf("NodesSolving = %d", res.NodesSolving)
	}
	if res.MaxEdgeProblems <= 0 {
		t.Errorf("MaxEdgeProblems = %d", res.MaxEdgeProblems)
	}
}

func TestDistributedPlanExecutes(t *testing.T) {
	inst := fixture(t, 9, true)
	res, err := Optimize(inst, radio.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := res.Plan.BuildTables()
	if err != nil {
		t.Fatal(err)
	}
	if tab.TotalEntries() == 0 {
		t.Error("empty tables from distributed plan")
	}
	// Spot-check a value through the engine-independent evaluator.
	sp := inst.Specs[0]
	vals := make(map[graph.NodeID]float64)
	for _, s := range sp.Func.Sources() {
		vals[s] = 1
	}
	if _, err := agg.Eval(sp.Func, vals); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedRejectsBadRadio(t *testing.T) {
	inst := fixture(t, 11, true)
	if _, err := Optimize(inst, radio.Model{}); err == nil {
		t.Error("invalid radio accepted")
	}
}

package m2m

import (
	"math"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	net := GreatDuckIsland()
	if net.Len() != 68 {
		t.Fatalf("GDI nodes = %d", net.Len())
	}
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests:       8,
		SourcesPerDest: 10,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[NodeID(i)] = float64(i) * 0.25
	}
	res, err := Execute(p, net, readings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(specs) {
		t.Fatalf("values for %d destinations, want %d", len(res.Values), len(specs))
	}
	if res.EnergyJ <= 0 || res.Messages <= 0 {
		t.Errorf("degenerate round: %+v", res)
	}

	// Optimal beats both baselines.
	for _, mk := range []func(*Instance) *Plan{Multicast, AggregateASAP} {
		base, err := Execute(mk(inst), net, readings)
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyJ > base.EnergyJ+1e-12 {
			t.Errorf("optimal %v J > baseline %v J", res.EnergyJ, base.EnergyJ)
		}
	}

	// Flood agrees on values and costs more.
	fl, err := Flood(net, specs, readings)
	if err != nil {
		t.Fatal(err)
	}
	for d, v := range res.Values {
		if math.Abs(fl.Values[d]-v) > 1e-6*(1+math.Abs(v)) {
			t.Errorf("flood value at %d = %v, plan value %v", d, fl.Values[d], v)
		}
	}
	if fl.EnergyJ < res.EnergyJ {
		t.Errorf("flood %v J cheaper than optimal %v J", fl.EnergyJ, res.EnergyJ)
	}
}

func TestFacadeSharedTreeRouter(t *testing.T) {
	net := RandomNetwork(50, 3)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 6, SourcesPerDest: 6, Dispersion: 0.5, MaxHops: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterSharedTree)
	if err != nil {
		t.Fatal(err)
	}
	// Optimize returns an error if the independently solved edges do not
	// fit together, which Theorem 1 rules out under both restrictions.
	if _, err := Optimize(inst); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSuppression(t *testing.T) {
	net := GridNetwork(6, 6, 30)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 5, SourcesPerDest: 5, Dispersion: 0.9, MaxHops: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSuppressor(p, net, PolicyMedium)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sup.Round(map[NodeID]float64{specs[0].Func.Sources()[0]: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ <= 0 {
		t.Error("suppressed round with one change cost nothing")
	}
}

func TestFacadeReoptimize(t *testing.T) {
	net := RandomNetwork(40, 9)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 5, SourcesPerDest: 5, Dispersion: 0.5, MaxHops: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterSharedTree)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	fresh, stats, err := Reoptimize(old, inst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesReused != stats.EdgesTotal {
		t.Errorf("identical instance reused %d of %d edges", stats.EdgesReused, stats.EdgesTotal)
	}
	if fresh.TotalBodyBytes() != old.TotalBodyBytes() {
		t.Error("reoptimized identical instance changed cost")
	}
}

func TestFacadeRejectsUnknownRouter(t *testing.T) {
	net := GridNetwork(3, 3, 30)
	specs, err := net.GenerateWorkload(WorkloadConfig{NumDests: 1, SourcesPerDest: 2, Dispersion: 0.5, MaxHops: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewInstance(specs, RouterKind(42)); err == nil {
		t.Error("unknown router accepted")
	}
}

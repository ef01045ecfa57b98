package m2m

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/motesim"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
)

// TestSoak sweeps the whole stack across topologies, routers, workload
// shapes, and function mixes: every combination must plan, validate,
// build tables, execute with exact values, and (for linear workloads)
// run a suppressed round. This is the wide-net regression the individual
// package tests don't cast.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(4242))

	type topo struct {
		name string
		mk   func(seed int64) *Network
	}
	topos := []topo{
		{"gdi", func(int64) *Network { return GreatDuckIsland() }},
		{"random80", func(seed int64) *Network { return RandomNetwork(80, seed) }},
		{"grid", func(int64) *Network { return GridNetwork(9, 7, 35) }},
	}
	routers := []RouterKind{RouterReversePath, RouterSharedTree}

	cases := 0
	for _, tp := range topos {
		for _, rk := range routers {
			for variant := 0; variant < 3; variant++ {
				seed := rng.Int63()
				net := tp.mk(seed)
				cfg := WorkloadConfig{
					NumDests:       3 + variant*4,
					SourcesPerDest: 4 + variant*5,
					Dispersion:     float64(variant) / 2,
					MaxHops:        4,
					Seed:           seed,
				}
				if variant == 2 {
					cfg.MaxHops = 0 // uniform network-wide sources
					cfg.Dispersion = 0
				}
				specs, err := net.GenerateWorkload(cfg)
				if err != nil {
					t.Fatalf("%s/%d/%d: workload: %v", tp.name, rk, variant, err)
				}
				inst, err := net.NewInstance(specs, rk)
				if err != nil {
					t.Fatalf("%s/%d/%d: instance: %v", tp.name, rk, variant, err)
				}
				// Optimize returns an error if Theorem 1 does not hold.
				p, err := Optimize(inst)
				if err != nil {
					t.Fatalf("%s/%d/%d: optimize: %v", tp.name, rk, variant, err)
				}
				if _, err := p.BuildTables(); err != nil {
					t.Fatalf("%s/%d/%d: tables: %v", tp.name, rk, variant, err)
				}

				readings := make(map[NodeID]float64, net.Len())
				for i := 0; i < net.Len(); i++ {
					readings[NodeID(i)] = rng.NormFloat64() * 8
				}
				res, err := Execute(p, net, readings)
				if err != nil {
					t.Fatalf("%s/%d/%d: execute: %v", tp.name, rk, variant, err)
				}
				fl, err := Flood(net, specs, readings)
				if err != nil {
					t.Fatalf("%s/%d/%d: flood: %v", tp.name, rk, variant, err)
				}
				for d, v := range fl.Values {
					if math.Abs(res.Values[d]-v) > 1e-6*(1+math.Abs(v)) {
						t.Fatalf("%s/%d/%d: value mismatch at %d", tp.name, rk, variant, d)
					}
				}
				if res.EnergyJ <= 0 {
					t.Fatalf("%s/%d/%d: free round", tp.name, rk, variant)
				}

				// Suppressed round (generated workloads are weighted sums).
				sup, err := NewSuppressor(p, net, PolicyMedium)
				if err != nil {
					t.Fatalf("%s/%d/%d: suppressor: %v", tp.name, rk, variant, err)
				}
				deltas := make(map[NodeID]float64)
				for _, s := range inst.Sources() {
					if rng.Float64() < 0.3 {
						deltas[s] = rng.NormFloat64()
					}
				}
				if _, err := sup.Round(deltas); err != nil {
					t.Fatalf("%s/%d/%d: suppression: %v", tp.name, rk, variant, err)
				}
				cases++
			}
		}
	}
	if cases != len(topos)*len(routers)*3 {
		t.Fatalf("ran %d cases", cases)
	}
}

// TestSoakMilestoneAndMotes adds the milestone router and the mote-level
// executor to the sweep on a couple of configurations.
func TestSoakMilestoneAndMotes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	net := RandomNetwork(60, 5)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 8, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Milestone-contracted planning executes exactly.
	mr := routing.NewMilestoneRouter(net.Graph, routing.NewReversePath(net.Graph), routing.KeepEveryKth(3))
	inst, err := plan.NewInstance(net.Graph, mr, specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(p, radio.DefaultModel(), sim.Options{MergeMessages: true, EdgeHops: mr.EdgeHops})
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[NodeID(i)] = math.Round(rng.NormFloat64()*10*256) / 256
	}
	if _, err := eng.Run(readings); err != nil {
		t.Fatal(err)
	}

	// Mote-level execution of the plain plan.
	inst2, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Optimize(inst2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := motesim.Run(inst2, p2, readings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(specs) {
		t.Fatalf("motes served %d of %d destinations", len(res.Values), len(specs))
	}
}

// Failover walks through the Section 3 failure-handling story: a relay
// link degrades transiently (milestone routing rides it out with a
// detour, no replanning), then a node dies permanently (the workload is
// pruned, routing rebuilt, and the plan repaired incrementally per
// Corollary 1 — with the update's dissemination cost priced on the wire).
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"m2m"
	"m2m/internal/failure"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/wire"
)

func main() {
	net := m2m.GreatDuckIsland()
	specs, err := net.GenerateWorkload(m2m.WorkloadConfig{
		DestFraction:   0.2,
		SourcesPerDest: 12,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           17,
	})
	if err != nil {
		log.Fatal(err)
	}
	inst, err := net.NewInstance(specs, m2m.RouterReversePath)
	if err != nil {
		log.Fatal(err)
	}
	p, err := m2m.Optimize(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady state: %d edges, %d message units\n", len(inst.EdgeList), len(p.Units()))

	// --- Transient link failure -------------------------------------------
	// Pick a workload edge and see what the communication layer pays to
	// route around it between two milestones, without touching the plan.
	e := inst.EdgeList[len(inst.EdgeList)/2]
	if crit, err := failure.Critical(net.Graph, e.From, e.To); err == nil && !crit {
		detour, err := failure.DetourHops(net.Graph, e.From, e.To, e.From, e.To)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntransient failure of link %v: detour is %d hops (plan untouched)\n", e, detour)
	} else {
		fmt.Printf("\nlink %v is critical; a transient failure there partitions the network\n", e)
	}

	// --- Permanent node failure -------------------------------------------
	// Kill the busiest relay and recover.
	tables, err := p.BuildTables()
	if err != nil {
		log.Fatal(err)
	}
	var dead m2m.NodeID
	busiest := -1
	for i := 0; i < net.Len(); i++ {
		n := m2m.NodeID(i)
		if c := tables.NodeEntries(n); c > busiest {
			busiest, dead = c, n
		}
	}
	fmt.Printf("\npermanent failure of node %d (the busiest relay, %d table entries)\n", dead, busiest)

	g2, err := failure.RemoveNode(net.Graph, dead)
	if err != nil {
		log.Fatal(err)
	}
	pruned, dropped, err := failure.PruneSpecs(specs, dead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload pruned: %d of %d functions dropped\n", dropped, len(specs))

	newInst, err := plan.NewInstance(g2, routing.NewReversePath(g2), pruned)
	if err != nil {
		log.Fatal(err)
	}
	recovered, stats, err := plan.Reoptimize(p, newInst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d/%d edge solutions reused, %d re-solved\n",
		stats.EdgesReused, stats.EdgesTotal, stats.EdgesSolved)

	// Price the update dissemination (diff vs full reinstall).
	oldTab, err := p.BuildTables()
	if err != nil {
		log.Fatal(err)
	}
	newTab, err := recovered.BuildTables()
	if err != nil {
		log.Fatal(err)
	}
	model := radio.DefaultModel()
	full, err := wire.CostTables(newInst, newTab, model, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	diff, err := wire.CostUpdate(inst, newInst, oldTab, newTab, model, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan update: %d B to %d nodes (full reinstall would be %d B to %d nodes)\n",
		diff.Bytes, diff.Nodes, full.Bytes, full.Nodes)

	// Prove the recovered plan still works.
	readings := make(map[m2m.NodeID]float64)
	for i := 0; i < net.Len(); i++ {
		readings[m2m.NodeID(i)] = float64(i % 13)
	}
	res, err := m2m.Execute(recovered, &m2m.Network{Layout: net.Layout, Graph: g2, Radio: net.Radio}, readings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered round: %d destinations served, %.2f mJ\n", len(res.Values), res.EnergyJ*1e3)
}

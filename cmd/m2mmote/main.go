// Command m2mmote demonstrates the deployment pipeline end to end:
// optimize a plan, serialize the per-node tables into dissemination
// blobs, execute one round on simulated motes that hold only their
// decoded blob (exchanging wire-encoded messages), and then build and
// run the round's TDMA schedule in discrete time.
//
// Usage:
//
//	m2mmote                       # paper defaults on the GDI network
//	m2mmote -dests 0.3 -sources 15 -workload my.spec
package main

import (
	"flag"
	"fmt"
	"os"

	"m2m"
	"m2m/internal/motesim"
	"m2m/internal/radio"
	"m2m/internal/schedule"
	"m2m/internal/sim"
	"m2m/internal/wire"
)

func main() {
	var (
		dests      = flag.Float64("dests", 0.2, "fraction of nodes acting as destinations")
		sources    = flag.Int("sources", 12, "sources per destination")
		dispersion = flag.Float64("dispersion", 0.9, "dispersion factor d")
		seed       = flag.Int64("seed", 1, "workload seed")
		wlFile     = flag.String("workload", "", "load the workload from a spec file")
	)
	flag.Parse()

	net := m2m.GreatDuckIsland()
	var specs []m2m.Spec
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		check(err)
		specs, err = m2m.ParseWorkload(f)
		f.Close()
		check(err)
	} else {
		var err error
		specs, err = net.GenerateWorkload(m2m.WorkloadConfig{
			DestFraction:   *dests,
			SourcesPerDest: *sources,
			Dispersion:     *dispersion,
			MaxHops:        4,
			Seed:           *seed,
		})
		check(err)
	}
	inst, err := net.NewInstance(specs, m2m.RouterReversePath)
	check(err)
	p, err := m2m.Optimize(inst)
	check(err)

	tables, err := p.BuildTables()
	check(err)
	cost, err := wire.CostTables(inst, tables, net.Radio, 0, nil)
	check(err)
	fmt.Printf("plan:          %d edges, %d units, %d table entries\n",
		len(inst.EdgeList), len(p.Units()), tables.TotalEntries())
	fmt.Printf("dissemination: %d B → %d nodes in %d fragments (%.2f mJ)\n",
		cost.Bytes, cost.Nodes, cost.Messages, cost.EnergyJ*1e3)

	readings := make(map[m2m.NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[m2m.NodeID(i)] = 18 + float64(i%9)
	}
	res, err := motesim.Run(inst, p, readings)
	check(err)
	fmt.Printf("mote round:    %d messages, %d wire bytes, %d destinations served\n",
		res.Messages, res.WireBytes, len(res.Values))

	eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
	check(err)
	infos, err := eng.MessageGraph()
	check(err)
	msgs := make([]schedule.Message, len(infos))
	for i, mi := range infos {
		msgs[i] = schedule.Message{From: mi.From, To: mi.To, Deps: mi.Deps}
	}
	s, err := schedule.Build(net.Graph, msgs)
	check(err)
	slotBytes := net.Radio.HeaderBytes + 36
	check(s.Validate(net.Graph, msgs))
	fmt.Printf("tdma frame:    %d slots, %.0f ms round latency, validated collision- and stall-free\n",
		s.Len(), float64(s.Len())*schedule.SlotSeconds(slotBytes)*1e3)
	ls := s.Listening(msgs)
	fmt.Printf("listening:     %.1f%% radio-on time saved vs always-on (%.1f → %.1f mJ idle)\n",
		100*ls.SavedFraction(),
		radio.Millijoules(float64(ls.AlwaysOnSlots)*net.Radio.IdleListenJoules(slotBytes)),
		radio.Millijoules(float64(ls.AwakeSlots)*net.Radio.IdleListenJoules(slotBytes)))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2mmote:", err)
		os.Exit(1)
	}
}

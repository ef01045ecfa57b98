// Command m2mplan computes a many-to-many aggregation plan and dumps it
// for inspection: per-edge transmit decisions (raw values vs partial
// records), the four per-node runtime tables of Section 3, and the total
// in-network state.
//
// Usage:
//
//	m2mplan                       # paper defaults, summary only
//	m2mplan -edges                # per-edge decisions
//	m2mplan -node 17              # one node's tables
package main

import (
	"flag"
	"fmt"
	"os"

	"m2m"
)

func main() {
	var (
		dests      = flag.Float64("dests", 0.2, "fraction of nodes acting as destinations")
		sources    = flag.Int("sources", 20, "sources per destination")
		dispersion = flag.Float64("dispersion", 0.9, "dispersion factor d")
		seed       = flag.Int64("seed", 1, "workload seed")
		edges      = flag.Bool("edges", false, "print per-edge solutions")
		node       = flag.Int("node", -1, "print one node's tables")
		asJSON     = flag.Bool("json", false, "dump the whole plan as JSON and exit")
		asDOT      = flag.Bool("dot", false, "dump the plan as Graphviz DOT and exit")
		wlFile     = flag.String("workload", "", "load the workload from a spec file instead of generating it")
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
	if *asJSON {
		check(p.WriteJSON(os.Stdout))
		return
	}
	if *asDOT {
		writeDOT(net, inst, p)
		return
	}
	tables, err := p.BuildTables()
	check(err)

	rawUnits, aggUnits := 0, 0
	for _, u := range p.Units() {
		if u.Kind == 0 {
			rawUnits++
		} else {
			aggUnits++
		}
	}
	fmt.Printf("plan summary\n")
	fmt.Printf("  workload:        %d destinations × %d sources\n", len(specs), *sources)
	fmt.Printf("  directed edges:  %d\n", len(inst.EdgeList))
	fmt.Printf("  message units:   %d raw + %d records = %d\n", rawUnits, aggUnits, rawUnits+aggUnits)
	fmt.Printf("  body bytes:      %d\n", p.TotalBodyBytes())
	fmt.Printf("  state entries:   %d (%d bytes to disseminate)\n",
		tables.TotalEntries(), tables.StateBytes())

	if *edges {
		fmt.Println("\nper-edge decisions (raw sources | aggregated destinations):")
		for i, e := range inst.EdgeList {
			sol := p.Sol[i]
			fmt.Printf("  %3d→%-3d raw=%v agg=%v\n", e.From, e.To, keys(sol.Raw), keys(sol.Agg))
		}
	}
	if *node >= 0 {
		n := m2m.NodeID(*node)
		fmt.Printf("\ntables at node %d:\n", n)
		fmt.Printf("  raw:      %v\n", tables.Raw[n])
		fmt.Printf("  pre-agg:  %v\n", tables.PreAgg[n])
		fmt.Printf("  partial:  %v\n", tables.Partial[n])
		fmt.Printf("  outgoing: %v\n", tables.Outgoing[n])
	}
}

// writeDOT renders the plan as a directed graph: sources are boxes,
// destinations doublecircles, and each plan edge is labeled with its raw
// and record unit counts.
func writeDOT(net *m2m.Network, inst *m2m.Instance, p *m2m.Plan) {
	fmt.Println("digraph m2mplan {")
	fmt.Println("  node [shape=point, width=0.08];")
	isDest := make(map[m2m.NodeID]bool)
	isSrc := make(map[m2m.NodeID]bool)
	for _, sp := range inst.Specs {
		isDest[sp.Dest] = true
		for _, s := range sp.Func.Sources() {
			isSrc[s] = true
		}
	}
	for i, pt := range net.Layout.Points {
		id := m2m.NodeID(i)
		attrs := fmt.Sprintf("pos=\"%.1f,%.1f!\"", pt.X, pt.Y)
		switch {
		case isDest[id] && isSrc[id]:
			attrs += ", shape=doubleoctagon, width=0.2, label=\"" + fmt.Sprint(i) + "\""
		case isDest[id]:
			attrs += ", shape=doublecircle, width=0.2, label=\"" + fmt.Sprint(i) + "\""
		case isSrc[id]:
			attrs += ", shape=box, width=0.15, label=\"" + fmt.Sprint(i) + "\""
		}
		fmt.Printf("  n%d [%s];\n", i, attrs)
	}
	for i, e := range inst.EdgeList {
		sol := p.Sol[i]
		fmt.Printf("  n%d -> n%d [label=\"%dr/%da\"];\n", e.From, e.To, len(sol.Raw), len(sol.Agg))
	}
	fmt.Println("}")
}

func keys(m map[m2m.NodeID]bool) []m2m.NodeID {
	out := make([]m2m.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2mplan:", err)
		os.Exit(1)
	}
}

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
	"io"
	"os"

	"m2m"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "m2mplan:", err)
		os.Exit(1)
	}
}

// run parses args, plans the workload and writes the requested view of
// the plan to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("m2mplan", flag.ExitOnError)
	var (
		dests      = fs.Float64("dests", 0.2, "fraction of nodes acting as destinations")
		sources    = fs.Int("sources", 20, "sources per destination")
		dispersion = fs.Float64("dispersion", 0.9, "dispersion factor d")
		seed       = fs.Int64("seed", 1, "workload seed")
		edges      = fs.Bool("edges", false, "print per-edge solutions")
		node       = fs.Int("node", -1, "print one node's tables")
		asJSON     = fs.Bool("json", false, "dump the whole plan as JSON and exit")
		asDOT      = fs.Bool("dot", false, "dump the plan as Graphviz DOT and exit")
		wlFile     = fs.String("workload", "", "load the workload from a spec file instead of generating it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	net := m2m.GreatDuckIsland()
	var specs []m2m.Spec
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			return err
		}
		specs, err = m2m.ParseWorkload(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		specs, err = net.GenerateWorkload(m2m.WorkloadConfig{
			DestFraction:   *dests,
			SourcesPerDest: *sources,
			Dispersion:     *dispersion,
			MaxHops:        4,
			Seed:           *seed,
		})
		if err != nil {
			return err
		}
	}
	inst, err := net.NewInstance(specs, m2m.RouterReversePath)
	if err != nil {
		return err
	}
	p, err := m2m.Optimize(inst)
	if err != nil {
		return err
	}
	if *asJSON {
		return p.WriteJSON(out)
	}
	if *asDOT {
		writeDOT(out, net, inst, p)
		return nil
	}
	tables, err := p.BuildTables()
	if err != nil {
		return err
	}

	rawUnits, aggUnits := 0, 0
	for _, u := range p.Units() {
		if u.Kind == 0 {
			rawUnits++
		} else {
			aggUnits++
		}
	}
	fmt.Fprintf(out, "plan summary\n")
	fmt.Fprintf(out, "  workload:        %d destinations × %d sources\n", len(specs), *sources)
	fmt.Fprintf(out, "  directed edges:  %d\n", len(inst.EdgeList))
	fmt.Fprintf(out, "  message units:   %d raw + %d records = %d\n", rawUnits, aggUnits, rawUnits+aggUnits)
	fmt.Fprintf(out, "  body bytes:      %d\n", p.TotalBodyBytes())
	fmt.Fprintf(out, "  state entries:   %d (%d bytes to disseminate)\n",
		tables.TotalEntries(), tables.StateBytes())

	if *edges {
		fmt.Fprintln(out, "\nper-edge decisions (raw sources | aggregated destinations):")
		for i, e := range inst.EdgeList {
			r := p.Row(i)
			fmt.Fprintf(out, "  %3d→%-3d raw=%v agg=%v\n", e.From, e.To, flagged(r.Sources, r.Raw), flagged(r.Dests, r.Agg))
		}
	}
	if *node >= 0 {
		n := m2m.NodeID(*node)
		fmt.Fprintf(out, "\ntables at node %d:\n", n)
		fmt.Fprintf(out, "  raw:      %v\n", tables.Raw[n])
		fmt.Fprintf(out, "  pre-agg:  %v\n", tables.PreAgg[n])
		fmt.Fprintf(out, "  partial:  %v\n", tables.Partial[n])
		fmt.Fprintf(out, "  outgoing: %v\n", tables.Outgoing[n])
	}
	return nil
}

// writeDOT renders the plan as a directed graph: sources are boxes,
// destinations doublecircles, and each plan edge is labeled with its raw
// and record unit counts.
func writeDOT(out io.Writer, net *m2m.Network, inst *m2m.Instance, p *m2m.Plan) {
	fmt.Fprintln(out, "digraph m2mplan {")
	fmt.Fprintln(out, "  node [shape=point, width=0.08];")
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
		fmt.Fprintf(out, "  n%d [%s];\n", i, attrs)
	}
	for i, e := range inst.EdgeList {
		r := p.Row(i)
		fmt.Fprintf(out, "  n%d -> n%d [label=\"%dr/%da\"];\n", e.From, e.To,
			len(flagged(r.Sources, r.Raw)), len(flagged(r.Dests, r.Agg)))
	}
	fmt.Fprintln(out, "}")
}

// flagged returns the nodes whose flag is set, in list order.
func flagged(nodes []m2m.NodeID, flags []bool) []m2m.NodeID {
	out := make([]m2m.NodeID, 0, len(nodes))
	for k, n := range nodes {
		if flags[k] {
			out = append(out, n)
		}
	}
	return out
}

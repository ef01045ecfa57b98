// Command m2mtopo inspects and exports network topologies: node
// coordinates, connectivity, and summary statistics (degree, diameter,
// density), as text, CSV, or Graphviz DOT.
//
// Usage:
//
//	m2mtopo                     # Great Duck Island summary
//	m2mtopo -nodes 150 -seed 2  # scaled random network
//	m2mtopo -format dot | dot -Tsvg > net.svg
//	m2mtopo -format csv
package main

import (
	"flag"
	"fmt"
	"os"

	"m2m"
	"m2m/internal/graph"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 0, "random network size (0 = Great Duck Island)")
		seed   = flag.Int64("seed", 1, "placement seed for random networks")
		format = flag.String("format", "summary", "output: summary | csv | dot")
	)
	flag.Parse()

	var net *m2m.Network
	if *nodes > 0 {
		net = m2m.RandomNetwork(*nodes, *seed)
	} else {
		net = m2m.GreatDuckIsland()
	}
	g := net.Graph

	switch *format {
	case "summary":
		minDeg, maxDeg, sumDeg := g.Len(), 0, 0
		for u := 0; u < g.Len(); u++ {
			d := g.Degree(graph.NodeID(u))
			sumDeg += d
			if d < minDeg {
				minDeg = d
			}
			if d > maxDeg {
				maxDeg = d
			}
		}
		diameter := 0
		for u := 0; u < g.Len(); u++ {
			diameter = max(diameter, g.Walk(graph.NodeID(u)).Eccentricity())
		}
		fmt.Printf("nodes:     %d\n", g.Len())
		fmt.Printf("area:      %.0f × %.0f m²\n", net.Layout.Area.Width(), net.Layout.Area.Height())
		fmt.Printf("links:     %d\n", g.NumEdges())
		fmt.Printf("degree:    min %d / mean %.1f / max %d\n",
			minDeg, float64(sumDeg)/float64(g.Len()), maxDeg)
		fmt.Printf("diameter:  %d hops\n", diameter)
		fmt.Printf("connected: %v\n", g.Connected())
		fmt.Printf("range:     %.0f m\n", net.Radio.RangeMeters)
	case "csv":
		fmt.Println("kind,a,b,x,y")
		for i, p := range net.Layout.Points {
			fmt.Printf("node,%d,,%.2f,%.2f\n", i, p.X, p.Y)
		}
		for _, e := range g.Edges() {
			fmt.Printf("link,%d,%d,,\n", e.U, e.V)
		}
	case "dot":
		fmt.Println("graph sensornet {")
		fmt.Println("  node [shape=point];")
		for i, p := range net.Layout.Points {
			fmt.Printf("  n%d [pos=\"%.1f,%.1f!\"];\n", i, p.X, p.Y)
		}
		for _, e := range g.Edges() {
			fmt.Printf("  n%d -- n%d;\n", e.U, e.V)
		}
		fmt.Println("}")
	default:
		fmt.Fprintf(os.Stderr, "m2mtopo: unknown format %q\n", *format)
		os.Exit(2)
	}
}

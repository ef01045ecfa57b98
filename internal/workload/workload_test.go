package workload

import (
	"math"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/topology"
)

func gdiGraph(t testing.TB) *graph.Undirected {
	t.Helper()
	_, g, err := topology.GreatDuckIsland()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateBasics(t *testing.T) {
	g := gdiGraph(t)
	specs, err := Generate(g, Config{DestFraction: 0.2, SourcesPerDest: 10, Dispersion: 0.9, MaxHops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantDests := int(math.Round(0.2 * float64(g.Len())))
	if len(specs) != wantDests {
		t.Fatalf("destinations = %d, want %d", len(specs), wantDests)
	}
	seen := make(map[graph.NodeID]bool)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		if seen[sp.Dest] {
			t.Fatalf("destination %d repeated", sp.Dest)
		}
		seen[sp.Dest] = true
		if got := len(sp.Func.Sources()); got != 10 {
			t.Errorf("destination %d has %d sources", sp.Dest, got)
		}
		for _, s := range sp.Func.Sources() {
			if s == sp.Dest {
				t.Errorf("destination %d is its own source", sp.Dest)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := gdiGraph(t)
	cfg := Config{NumDests: 10, SourcesPerDest: 8, Dispersion: 0.5, MaxHops: 4, Seed: 7}
	a, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Dest != b[i].Dest {
			t.Fatal("nondeterministic destinations")
		}
		sa, sb := a[i].Func.Sources(), b[i].Func.Sources()
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatal("nondeterministic sources")
			}
		}
	}
}

func TestDispersionZeroKeepsSourcesAdjacent(t *testing.T) {
	// Large grid so hop-1 neighborhoods can satisfy the demand.
	g := topology.Grid(10, 10, 10).ConnectivityGraph(15)
	specs, err := Generate(g, Config{NumDests: 5, SourcesPerDest: 3, Dispersion: 0, MaxHops: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		bfs := g.Walk(sp.Dest)
		for _, s := range sp.Func.Sources() {
			if h := bfs.Hops(s); h > 2 {
				// Hop-1 preferred; fallback may spill to the nearest
				// non-empty bucket when the neighborhood is smaller than
				// the demand, but never far.
				t.Errorf("dispersion 0: source %d is %d hops from %d", s, h, sp.Dest)
			}
		}
	}
}

func TestDispersionOneSpreadsSources(t *testing.T) {
	g := gdiGraph(t)
	specs, err := Generate(g, Config{NumDests: 12, SourcesPerDest: 20, Dispersion: 1, MaxHops: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// With d = 1, hops 1..4 are equally likely: a large share of sources
	// must sit beyond hop 1.
	far, total := 0, 0
	for _, sp := range specs {
		bfs := g.Walk(sp.Dest)
		for _, s := range sp.Func.Sources() {
			total++
			if bfs.Hops(s) > 1 {
				far++
			}
		}
	}
	if float64(far)/float64(total) < 0.5 {
		t.Errorf("dispersion 1: only %d/%d sources beyond hop 1", far, total)
	}
}

func TestDispersionDistributionShape(t *testing.T) {
	// Statistical check: with d = 0.5 over H = 3, expected proportions are
	// 4/7, 2/7, 1/7 for hops 1, 2, 3. Use a grid big enough that buckets
	// don't run dry and check rough agreement.
	g := topology.Grid(20, 20, 10).ConnectivityGraph(15)
	specs, err := Generate(g, Config{NumDests: 40, SourcesPerDest: 7, Dispersion: 0.5, MaxHops: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	total := 0
	for _, sp := range specs {
		bfs := g.Walk(sp.Dest)
		for _, s := range sp.Func.Sources() {
			counts[bfs.Hops(s)]++
			total++
		}
	}
	frac1 := float64(counts[1]) / float64(total)
	frac3 := float64(counts[3]) / float64(total)
	if frac1 < 0.40 || frac1 > 0.75 {
		t.Errorf("hop-1 fraction = %v, expected ≈ 0.57", frac1)
	}
	if frac3 > 0.30 {
		t.Errorf("hop-3 fraction = %v, expected ≈ 0.14", frac3)
	}
	if frac1 <= frac3 {
		t.Error("hop-1 should dominate hop-3 at d=0.5")
	}
}

func TestUniformModeIgnoresDistance(t *testing.T) {
	g := gdiGraph(t)
	specs, err := Generate(g, Config{NumDests: 8, SourcesPerDest: 10, Dispersion: 0, MaxHops: 0, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Some sources should be far away (uniform over the network).
	far := 0
	for _, sp := range specs {
		bfs := g.Walk(sp.Dest)
		for _, s := range sp.Func.Sources() {
			if bfs.Hops(s) > 2 {
				far++
			}
		}
	}
	if far == 0 {
		t.Error("uniform mode produced only nearby sources")
	}
}

func TestWeightedAverageKind(t *testing.T) {
	g := gdiGraph(t)
	specs, err := Generate(g, Config{NumDests: 3, SourcesPerDest: 5, Dispersion: 0.9, MaxHops: 4, Kind: WeightedAverage, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, ok := sp.Func.(*agg.WeightedAverage); !ok {
			t.Fatalf("expected weighted average, got %s", sp.Func.Name())
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	g := gdiGraph(t)
	bad := []Config{
		{},                                  // no destinations
		{NumDests: 1000, SourcesPerDest: 1}, // too many destinations
		{NumDests: 1, SourcesPerDest: 0},    // no sources
		{NumDests: 1, SourcesPerDest: 1, Dispersion: 1.5}, // bad dispersion
		{NumDests: 1, SourcesPerDest: 100},                // more sources than nodes
		{NumDests: 1, SourcesPerDest: 1, Kind: FuncKind("nope")},
	}
	for i, cfg := range bad {
		if _, err := Generate(g, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Generate(graph.NewUndirected(0), Config{NumDests: 1, SourcesPerDest: 1}); err == nil {
		t.Error("empty network accepted")
	}
}

func TestHopLimitExtendsWhenSupplyShort(t *testing.T) {
	// A long line: only 2 nodes within 2 hops of an endpoint, but we ask
	// for 4 sources — the limit must extend.
	g := topology.Grid(10, 1, 10).ConnectivityGraph(15)
	specs, err := Generate(g, Config{NumDests: 1, SourcesPerDest: 4, Dispersion: 0.9, MaxHops: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(specs[0].Func.Sources()); got != 4 {
		t.Errorf("sources = %d", got)
	}
}

package plan

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// shippedRouters builds a fresh router of each kind over g.
var shippedRouters = map[string]func(g *graph.Undirected) (routing.Router, error){
	"reverse-path":          func(g *graph.Undirected) (routing.Router, error) { return routing.NewReversePath(g), nil },
	"weighted-reverse-path": func(g *graph.Undirected) (routing.Router, error) { return routing.NewWeightedReversePath(g), nil },
	"shared-tree":           func(g *graph.Undirected) (routing.Router, error) { return routing.NewSharedTree(g) },
	"min-degree-tree":       func(g *graph.Undirected) (routing.Router, error) { return routing.NewMinDegreeTree(g) },
	"source-spt":            func(g *graph.Undirected) (routing.Router, error) { return routing.NewSourceSPT(g), nil },
	"milestone": func(g *graph.Undirected) (routing.Router, error) {
		return routing.NewMilestoneRouter(g, routing.NewReversePath(g), routing.KeepEveryKth(2)), nil
	},
}

// withProcs runs f under runtime.GOMAXPROCS(procs), restoring the old
// setting afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// routedInstance is what NewInstance resolved: the instance, or the text
// of its error.
type routedInstance struct {
	inst *Instance
	err  string
}

// sameRouting reports how a and b differ in their routes, edge index,
// pair rows, source, parameter and hop rows, or "" if they agree.
func sameRouting(a, b routedInstance) string {
	switch {
	case a.err != b.err:
		return "error " + b.err + " vs " + a.err
	case a.inst == nil:
		return ""
	case !reflect.DeepEqual(a.inst.Paths, b.inst.Paths):
		return "paths differ"
	case !reflect.DeepEqual(a.inst.EdgeList, b.inst.EdgeList):
		return "edge lists differ"
	case !reflect.DeepEqual(a.inst.pairOff, b.inst.pairOff) || !reflect.DeepEqual(a.inst.pairs, b.inst.pairs):
		return "pair rows differ"
	case !reflect.DeepEqual(a.inst.endOff, b.inst.endOff) || !reflect.DeepEqual(a.inst.ends, b.inst.ends):
		return "end rows differ"
	case !reflect.DeepEqual(a.inst.specOff, b.inst.specOff) || !reflect.DeepEqual(a.inst.pairSrc, b.inst.pairSrc):
		return "source rows differ"
	case !reflect.DeepEqual(a.inst.pairParam, b.inst.pairParam) || !reflect.DeepEqual(a.inst.paramErr, b.inst.paramErr):
		return "parameter rows differ"
	case !reflect.DeepEqual(a.inst.hopOff, b.inst.hopOff) || !reflect.DeepEqual(a.inst.hopEdge, b.inst.hopEdge):
		return "edge-index rows differ"
	}
	return ""
}

// TestNewInstanceIndependentOfGOMAXPROCS routes the same workloads with
// every router under GOMAXPROCS 1, 2 and 8 and requires identical paths,
// edge lists, pair rows and the source, parameter and edge-index rows, or
// identical error text. It runs under -short
// too, so the race-checked test pass covers concurrent routing.
func TestNewInstanceIndependentOfGOMAXPROCS(t *testing.T) {
	_, gdi, err := topology.GreatDuckIsland()
	if err != nil {
		t.Fatal(err)
	}
	_, g1k, err := topology.Scaled(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, clustered, err := topology.ScaledClustered(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name string
		g    *graph.Undirected
		cfg  workload.Config
	}{
		{"gdi", gdi, workload.Config{DestFraction: 0.2, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1}},
		{"random-1k", g1k, workload.Config{NumDests: 20, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1}},
		{"clustered-500", clustered, workload.Config{NumDests: 20, SourcesPerDest: 15, Dispersion: 0.9, MaxHops: 4, Seed: 2}},
	}
	for _, nt := range nets {
		specs, err := workload.Generate(nt.g, nt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, build := range shippedRouters {
			var first routedInstance
			for k, procs := range []int{1, 2, 8} {
				router, err := build(nt.g)
				if err != nil {
					t.Fatal(err)
				}
				var got routedInstance
				withProcs(procs, func() {
					got.inst, err = NewInstance(nt.g, router, specs)
				})
				if err != nil {
					got.inst, got.err = nil, err.Error()
				}
				if k == 0 {
					first = got
				} else if diff := sameRouting(first, got); diff != "" {
					t.Errorf("%s/%s: GOMAXPROCS %d vs 1: %s", nt.name, name, procs, diff)
				}
			}
		}
	}
}

// detourRouter is ReversePath except for the pairs in detours, which
// take the given paths. It forks like ReversePath, so NewInstance routes
// it on several goroutines.
type detourRouter struct {
	*routing.ReversePath
	detours map[Pair][]graph.NodeID
}

func (r detourRouter) AppendPath(dst []graph.NodeID, s, d graph.NodeID) ([]graph.NodeID, error) {
	if p, ok := r.detours[Pair{Source: s, Dest: d}]; ok {
		return append(dst, p...), nil
	}
	return r.ReversePath.AppendPath(dst, s, d)
}

func (r detourRouter) Fork() routing.Router {
	return detourRouter{r.ReversePath.Fork().(*routing.ReversePath), r.detours}
}

// TestNewInstanceErrorOrderIndependentOfGOMAXPROCS checks that the error
// NewInstance reports does not depend on GOMAXPROCS: the first routing or
// out-of-range error in (spec, source) order outranks the first suffix
// violation in spec order, and the first suffix violation is reported
// when nothing else fails.
func TestNewInstanceErrorOrderIndependentOfGOMAXPROCS(t *testing.T) {
	_, g, err := topology.Scaled(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Generate(g, workload.Config{NumDests: 20, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// withSource returns specs with spec i's function replaced by a sum
	// over its sources plus src.
	withSource := func(specs []agg.Spec, i int, src graph.NodeID) []agg.Spec {
		out := append([]agg.Spec(nil), specs...)
		w := map[graph.NodeID]float64{src: 1}
		for _, s := range specs[i].Func.Sources() {
			w[s] = 1
		}
		out[i] = agg.Spec{Dest: specs[i].Dest, Func: agg.NewWeightedSum(w)}
		return out
	}
	// diverge routes a source of spec i through the source before it and
	// straight on to the destination, leaving that source on another hop
	// than its own path does: a suffix violation.
	diverge := func(detours map[Pair][]graph.NodeID, i int) string {
		d := specs[i].Dest
		srcs := specs[i].Func.Sources()
		for k := 0; k+1 < len(srcs); k++ {
			path, err := routing.NewReversePath(g).AppendPath(nil, srcs[k], d)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) >= 3 {
				detours[Pair{Source: srcs[k+1], Dest: d}] = []graph.NodeID{srcs[k+1], srcs[k], d}
				return fmt.Sprintf("suffix property violated at node %d toward %d: %d vs %d", srcs[k], d, path[1], d)
			}
		}
		t.Fatalf("spec %d: no path long enough to diverge from", i)
		return ""
	}
	// An isolated node: the network's slots stay, its links go.
	cut := graph.NewUndirected(g.Len())
	island := graph.NodeID(g.Len() - 1)
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && graph.NodeID(u) != island && v != island {
				if err := cut.AddEdge(graph.NodeID(u), v, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	detours := map[Pair][]graph.NodeID{}
	suffix3 := diverge(detours, 3)
	diverge(detours, 12)
	outOfRange := withSource(specs, 17, graph.NodeID(g.Len()+5))
	cases := []struct {
		name  string
		g     *graph.Undirected
		specs []agg.Spec
		want  string
	}{
		{"out-of-range-outranks-suffix", g, outOfRange, "source 1005 out of range"},
		{"unreachable-outranks-later-routing-and-suffix", cut, withSource(outOfRange, 11, island),
			fmt.Sprintf("routing pair %d→%d", island, specs[11].Dest)},
		{"first-suffix-in-spec-order", g, specs, suffix3},
	}
	for _, tc := range cases {
		var first string
		for k, procs := range []int{1, 2, 8} {
			var err error
			router := detourRouter{routing.NewReversePath(tc.g), detours}
			withProcs(procs, func() { _, err = NewInstance(tc.g, router, tc.specs) })
			if err == nil {
				t.Fatalf("%s: GOMAXPROCS %d: no error", tc.name, procs)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: GOMAXPROCS %d: error %q does not contain %q", tc.name, procs, err, tc.want)
			}
			if k == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: GOMAXPROCS %d reported %q, GOMAXPROCS 1 reported %q", tc.name, procs, err, first)
			}
		}
	}
}

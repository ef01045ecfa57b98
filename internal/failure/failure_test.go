package failure

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

func TestRemoveLink(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	c, err := RemoveLink(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.HasEdge(0, 1) {
		t.Error("link survived removal")
	}
	if !g.HasEdge(0, 1) {
		t.Error("original graph mutated")
	}
	if _, err := RemoveLink(g, 0, 2); err == nil {
		t.Error("missing link accepted")
	}
}

func TestRemoveNode(t *testing.T) {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	c, err := RemoveNode(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Degree(1) != 0 {
		t.Error("node 1 still connected")
	}
	if g.Degree(1) != 3 {
		t.Error("original graph mutated")
	}
	if _, err := RemoveNode(g, 9); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestPruneSpecs(t *testing.T) {
	w := func(ids ...graph.NodeID) map[graph.NodeID]float64 {
		m := make(map[graph.NodeID]float64)
		for _, id := range ids {
			m[id] = float64(id) + 1
		}
		return m
	}
	specs := []agg.Spec{
		{Dest: 5, Func: agg.NewWeightedSum(w(1, 2))}, // loses source 2
		{Dest: 2, Func: agg.NewWeightedSum(w(1))},    // destination dies
		{Dest: 6, Func: agg.NewWeightedSum(w(2))},    // loses its only source
		{Dest: 7, Func: agg.NewWeightedSum(w(3))},    // untouched
	}
	pruned, dropped, err := PruneSpecs(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v", pruned)
	}
	if pruned[0].Dest != 5 || pruned[0].Func.HasSource(2) {
		t.Errorf("spec for 5 wrong: %+v", pruned[0])
	}
	// Surviving weights must be preserved.
	if got := pruned[0].Func.(*agg.WeightedSum).Weight(1); got != 2 {
		t.Errorf("weight of source 1 = %v, want 2", got)
	}
}

func TestPruneSpecsEmptyWorkload(t *testing.T) {
	w := map[graph.NodeID]float64{2: 1}
	specs := []agg.Spec{
		{Dest: 5, Func: agg.NewWeightedSum(w)},                              // loses its only source
		{Dest: 2, Func: agg.NewWeightedSum(map[graph.NodeID]float64{1: 1})}, // destination dies
	}
	pruned, dropped, err := PruneSpecs(specs, 2)
	if err == nil {
		t.Fatalf("empty pruned workload accepted: %v", pruned)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
}

func TestRebuildAllFuncKinds(t *testing.T) {
	srcs := []graph.NodeID{1, 2, 3}
	w := map[graph.NodeID]float64{1: 0.5, 2: 1.5, 3: 2.5}
	funcs := []agg.Func{
		agg.NewWeightedSum(w),
		agg.NewWeightedAverage(w),
		agg.NewWeightedStdDev(w),
		agg.NewMin(srcs),
		agg.NewMax(srcs),
		agg.NewRange(srcs),
		agg.NewCountAbove(srcs, 1.0),
	}
	for _, f := range funcs {
		g, err := agg.Rebuild(f, func(s graph.NodeID) bool { return s != 2 })
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if g.HasSource(2) || !g.HasSource(1) || !g.HasSource(3) {
			t.Errorf("%s: sources = %v", f.Name(), g.Sources())
		}
		if g.Name() != f.Name() {
			t.Errorf("rebuild changed kind %s → %s", f.Name(), g.Name())
		}
	}
	if _, err := agg.Rebuild(funcs[0], func(graph.NodeID) bool { return false }); err == nil {
		t.Error("rebuild to zero sources accepted")
	}
}

func TestDetourHops(t *testing.T) {
	// Ring of 6: direct 0—1 link fails; detour is the long way around.
	g := graph.NewUndirected(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6), 1)
	}
	h, err := DetourHops(g, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h != 5 {
		t.Errorf("detour = %d hops, want 5", h)
	}
	// A line has no detour.
	line := graph.NewUndirected(3)
	line.AddEdge(0, 1, 1)
	line.AddEdge(1, 2, 1)
	if _, err := DetourHops(line, 0, 2, 0, 1); err == nil {
		t.Error("impossible detour accepted")
	}
}

func TestDetourHopsBridgeLink(t *testing.T) {
	// Two triangles joined by the bridge 2—3: failing the bridge leaves no
	// route across, while failing an in-triangle link detours in 2 hops.
	g := graph.NewUndirected(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	g.AddEdge(2, 3, 1)
	if crit, err := Critical(g, 2, 3); err != nil || !crit {
		t.Fatalf("bridge not critical: %v %v", crit, err)
	}
	if _, err := DetourHops(g, 2, 3, 2, 3); err == nil {
		t.Error("detour across a failed bridge accepted")
	}
	// Traffic within one side still detours around its failed link.
	h, err := DetourHops(g, 0, 1, 0, 1)
	if err != nil || h != 2 {
		t.Errorf("in-triangle detour = %d, %v; want 2 hops", h, err)
	}
}

func TestDetourHopsLastRemainingPath(t *testing.T) {
	// A 4-cycle with one chord removed step by step: once 0—1 and 0—3 are
	// the only links at node 0, failing 0—1 forces the unique remaining
	// path through 3; failing that too disconnects 0 entirely.
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	h, err := DetourHops(g, 0, 1, 0, 1)
	if err != nil || h != 3 {
		t.Fatalf("cycle detour = %d, %v; want 3 (the long way around)", h, err)
	}
	// Sever the long way: the detour that existed is gone.
	if !g.RemoveEdge(2, 3) {
		t.Fatal("setup: missing edge 2—3")
	}
	if _, err := DetourHops(g, 0, 1, 0, 1); err == nil {
		t.Error("detour around the last remaining path accepted")
	}
}

func TestDetourHopsAndCriticalOutOfRange(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if _, err := DetourHops(g, 0, 9, 0, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := DetourHops(g, -1, 2, 0, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := DetourHops(g, 0, 2, 7, 8); err == nil {
		t.Error("out-of-range failed link accepted")
	}
	if _, err := Critical(g, 0, 9); err == nil {
		t.Error("Critical accepted out-of-range node")
	}
	if _, err := Critical(g, -2, 1); err == nil {
		t.Error("Critical accepted negative node")
	}
}

func TestCritical(t *testing.T) {
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	crit, err := Critical(g, 2, 3)
	if err != nil || !crit {
		t.Errorf("bridge not critical: %v %v", crit, err)
	}
	crit, err = Critical(g, 0, 1)
	if err != nil || crit {
		t.Errorf("cycle edge reported critical: %v %v", crit, err)
	}
}

// TestNodeFailureRecoveryEndToEnd exercises the full Section 3 recovery
// path: a node dies, the workload is pruned, routing is rebuilt on the
// surgically modified graph, the plan is incrementally re-optimized, and
// the recovered plan still computes every surviving aggregate exactly.
func TestNodeFailureRecoveryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := topology.UniformRandom(45, topology.GDIArea(), 99)
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	g := l.ConnectivityGraph(50)
	specs, err := workload.Generate(g, workload.Config{
		NumDests: 7, SourcesPerDest: 6, Dispersion: 0.9, MaxHops: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	old, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a node that participates as a source.
	dead := specs[0].Func.Sources()[0]
	g2, err := RemoveNode(g, dead)
	if err != nil {
		t.Fatal(err)
	}
	if !connectedIgnoring(g2, dead) {
		t.Skip("failure partitioned this random network; recovery undefined")
	}
	pruned, _, err := PruneSpecs(specs, dead)
	if err != nil {
		t.Fatal(err)
	}
	newInst, err := plan.NewInstance(g2, routing.NewReversePath(g2), pruned)
	if err != nil {
		t.Fatal(err)
	}
	recovered, stats, err := plan.Reoptimize(old, newInst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesReused == 0 {
		t.Error("recovery reused nothing")
	}

	// The recovered plan must compute every surviving aggregate exactly.
	eng, err := sim.NewEngine(recovered, radio.DefaultModel(), sim.Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64)
	for i := 0; i < g.Len(); i++ {
		readings[graph.NodeID(i)] = rng.NormFloat64() * 10
	}
	res, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range pruned {
		vals := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			vals[s] = readings[s]
		}
		want, err := agg.Eval(sp.Func, vals)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Values[sp.Dest]-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("recovered value at %d = %v, want %v", sp.Dest, res.Values[sp.Dest], want)
		}
	}
}

// connectedIgnoring reports whether g is connected once the isolated node
// is disregarded.
func connectedIgnoring(g *graph.Undirected, isolated graph.NodeID) bool {
	comps := g.Components()
	big := 0
	for _, c := range comps {
		if len(c) > big {
			big = len(c)
		}
	}
	return big >= g.Len()-1
}

func TestRestoreNode(t *testing.T) {
	orig := graph.NewUndirected(4)
	orig.AddEdge(0, 1, 1)
	orig.AddEdge(1, 2, 2)
	orig.AddEdge(1, 3, 3)
	g, err := RemoveNode(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is still dead: its link must stay out.
	if err := RestoreNode(g, orig, 1, func(n graph.NodeID) bool { return n == 3 }); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("surviving links not restored")
	}
	if g.HasEdge(1, 3) {
		t.Error("link to a still-dead neighbor restored")
	}
	if w, _ := g.Weight(1, 2); w != 2 {
		t.Errorf("restored weight = %v, want 2", w)
	}
	// Idempotent, and a later restore can bring the remaining link back.
	if err := RestoreNode(g, orig, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 3) {
		t.Error("full restore left a link out")
	}
	if g.Degree(1) != orig.Degree(1) {
		t.Errorf("degree = %d, want %d", g.Degree(1), orig.Degree(1))
	}

	if err := RestoreNode(g, orig, 9, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	small := graph.NewUndirected(3)
	if err := RestoreNode(small, orig, 1, nil); err == nil {
		t.Error("mismatched graph sizes accepted")
	}
}

package plan

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/failure"
	"m2m/internal/graph"
	"m2m/internal/routing"
)

// withExtraSource returns inst's specs with one new source added to the
// spec of dest.
func withExtraSource(t *testing.T, inst *Instance, dest, src graph.NodeID) []agg.Spec {
	t.Helper()
	var specs []agg.Spec
	for _, sp := range inst.Specs {
		if sp.Dest != dest {
			specs = append(specs, sp)
			continue
		}
		w := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			w[s] = 1
		}
		w[src] = 1
		specs = append(specs, agg.Spec{Dest: dest, Func: agg.NewWeightedSum(w)})
	}
	return specs
}

func TestReoptimizeMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 40, 6, 5, sharedRouter(t))
		old, err := Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		// Add a random new source to a random destination.
		dests := inst.Dests()
		d := dests[rng.Intn(len(dests))]
		var src graph.NodeID
		for {
			src = graph.NodeID(rng.Intn(inst.Net.Len()))
			if !inst.SpecByDest[d].Func.HasSource(src) {
				break
			}
		}
		newInst, err := NewInstance(inst.Net, inst.Router, withExtraSource(t, inst, d, src))
		if err != nil {
			t.Fatal(err)
		}

		incr, stats, err := Reoptimize(old, newInst)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Optimize(newInst)
		if err != nil {
			t.Fatal(err)
		}
		if incr.TotalBodyBytes() != fresh.TotalBodyBytes() {
			t.Fatalf("trial %d: incremental cost %d != fresh cost %d",
				trial, incr.TotalBodyBytes(), fresh.TotalBodyBytes())
		}
		for i, sol := range solutions(fresh) {
			if !sameSolution(sol, setsOf(incr.Row(i))) {
				t.Fatalf("trial %d: solutions differ on %v", trial, newInst.EdgeList[i])
			}
		}
		if stats.EdgesReused == 0 {
			t.Errorf("trial %d: nothing reused (total %d edges)", trial, stats.EdgesTotal)
		}
		if stats.EdgesReused+stats.EdgesSolved < stats.EdgesTotal {
			t.Errorf("trial %d: reused %d + solved %d < total %d",
				trial, stats.EdgesReused, stats.EdgesSolved, stats.EdgesTotal)
		}
	}
}

func TestCorollary1Locality(t *testing.T) {
	// Adding one source must leave every edge whose single-edge inputs are
	// unchanged with an unchanged solution (Corollary 1): the number of
	// changed solutions must be at most the number of freshly solved edges.
	rng := rand.New(rand.NewSource(62))
	inst := randomInstance(t, rng, 50, 8, 6, sharedRouter(t))
	old, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	d := inst.Dests()[0]
	var src graph.NodeID
	for {
		src = graph.NodeID(rng.Intn(inst.Net.Len()))
		if !inst.SpecByDest[d].Func.HasSource(src) {
			break
		}
	}
	newInst, err := NewInstance(inst.Net, inst.Router, withExtraSource(t, inst, d, src))
	if err != nil {
		t.Fatal(err)
	}
	incr, stats, err := Reoptimize(old, newInst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesChangedSolution > stats.EdgesSolved {
		t.Errorf("changed %d > solved %d: a reused edge changed its solution",
			stats.EdgesChangedSolution, stats.EdgesSolved)
	}
	// The touched edges must lie on the new pair's path.
	path := newInst.Route(Pair{Source: src, Dest: d})
	onPath := make(map[routing.Edge]bool)
	for i := 0; i+1 < len(path); i++ {
		onPath[routing.Edge{From: path[i], To: path[i+1]}] = true
	}
	for i, sol := range solutions(incr) {
		e := newInst.EdgeList[i]
		prev := solution(old, e)
		if prev != nil && !sameSolution(prev, sol) && !onPath[e] {
			t.Errorf("edge %v changed solution but is not on the new pair's path", e)
		}
	}
}

func TestReoptimizeFromNil(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	inst := randomInstance(t, rng, 30, 5, 4, sharedRouter(t))
	p, stats, err := Reoptimize(nil, inst)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBodyBytes() != fresh.TotalBodyBytes() {
		t.Error("nil-based reoptimize differs from Optimize")
	}
	if stats.EdgesReused != 0 || stats.EdgesSolved < stats.EdgesTotal {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRemoveSourceLocality(t *testing.T) {
	// Removing a source: only edges along its old path may change.
	rng := rand.New(rand.NewSource(64))
	inst := randomInstance(t, rng, 45, 6, 6, sharedRouter(t))
	old, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	d := inst.Dests()[0]
	victim := inst.SpecByDest[d].Func.Sources()[0]
	var specs []agg.Spec
	for _, sp := range inst.Specs {
		if sp.Dest != d {
			specs = append(specs, sp)
			continue
		}
		w := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			if s != victim {
				w[s] = 1
			}
		}
		specs = append(specs, agg.Spec{Dest: d, Func: agg.NewWeightedSum(w)})
	}
	newInst, err := NewInstance(inst.Net, inst.Router, specs)
	if err != nil {
		t.Fatal(err)
	}
	incr, _, err := Reoptimize(old, newInst)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Optimize(newInst)
	if err != nil {
		t.Fatal(err)
	}
	if incr.TotalBodyBytes() != fresh.TotalBodyBytes() {
		t.Error("incremental after removal differs from fresh")
	}
	oldPath := inst.Route(Pair{Source: victim, Dest: d})
	onPath := make(map[routing.Edge]bool)
	for i := 0; i+1 < len(oldPath); i++ {
		onPath[routing.Edge{From: oldPath[i], To: oldPath[i+1]}] = true
	}
	for i, sol := range solutions(incr) {
		e := newInst.EdgeList[i]
		if prev := solution(old, e); prev != nil && !sameSolution(prev, sol) && !onPath[e] {
			t.Errorf("edge %v off the removed pair's path changed", e)
		}
	}
}

// referenceStats computes Reoptimize's UpdateStats for the replan old →
// p the way the all-edges implementation did: every edge of the new
// instance has its pair list, record widths and prices compared with the
// old instance's, and every edge of both plans is checked for a changed
// solution. It is the oracle for the delta-driven bookkeeping.
func referenceStats(old *Plan, p *Plan) UpdateStats {
	oldInst, inst := old.Inst, p.Inst
	st := UpdateStats{EdgesTotal: len(inst.EdgeList)}
	sameInputs := func(e routing.Edge) bool {
		a, b := oldInst.EdgePairs(e), inst.EdgePairs(e)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		for _, pr := range b {
			oldSpec, ok := oldInst.SpecByDest[pr.Dest]
			if !ok || agg.UnitBytes(oldSpec.Func) != agg.UnitBytes(inst.SpecByDest[pr.Dest].Func) {
				return false
			}
			for _, n := range []graph.NodeID{pr.Source, pr.Dest} {
				if priceOf(old.Prices, n) != priceOf(p.Prices, n) {
					return false
				}
			}
		}
		return true
	}
	for _, e := range inst.EdgeList {
		if prev := solution(old, e); prev != nil && sameInputs(e) {
			st.EdgesReused++
		}
	}
	st.EdgesSolved = st.EdgesTotal - st.EdgesReused
	oldSol := make(map[routing.Edge]*edgeSets, len(oldInst.EdgeList))
	for i, e := range oldInst.EdgeList {
		oldSol[e] = setsOf(old.Row(i))
	}
	seen := make(map[routing.Edge]bool)
	for i, e := range inst.EdgeList {
		seen[e] = true
		if prev, ok := oldSol[e]; !ok || !sameSolution(prev, setsOf(p.Row(i))) {
			st.EdgesChangedSolution++
		}
	}
	for e := range oldSol {
		if !seen[e] {
			st.EdgesChangedSolution++
		}
	}
	return st
}

// checkReplan replans old onto inst under prices and requires the result
// to export exactly as a from-scratch plan and its stats to match
// referenceStats.
func checkReplan(t *testing.T, old *Plan, inst *Instance, prices map[graph.NodeID]int64) *Plan {
	t.Helper()
	incr, stats, err := ReoptimizeWithPrices(old, inst, prices)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := OptimizeWithPrices(inst, prices)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Export(), fresh.Export()) {
		t.Fatal("incremental plan differs from a from-scratch plan")
	}
	if want := referenceStats(old, incr); *stats != want {
		t.Fatalf("stats = %+v, want %+v", *stats, want)
	}
	return incr
}

// TestReoptimizeDeltas replans one workload under each kind of delta the
// delta-driven Reoptimize must detect.
func TestReoptimizeDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	inst := randomInstance(t, rng, 60, 8, 6, reverseRouter)
	old, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Net
	replan := func(t *testing.T, g *graph.Undirected, specs []agg.Spec, prices map[graph.NodeID]int64) {
		newInst, err := NewInstance(g, routing.NewReversePath(g), specs)
		if err != nil {
			t.Fatal(err)
		}
		checkReplan(t, old, newInst, prices)
	}

	t.Run("destination dropped", func(t *testing.T) {
		replan(t, g, inst.Specs[1:], nil)
	})
	t.Run("source added", func(t *testing.T) {
		d := inst.Specs[0].Dest
		src := graph.NodeID(0)
		for inst.SpecByDest[d].Func.HasSource(src) {
			src++
		}
		replan(t, g, withExtraSource(t, inst, d, src), nil)
	})
	t.Run("record width changed", func(t *testing.T) {
		specs := append([]agg.Spec(nil), inst.Specs...)
		w := make(map[graph.NodeID]float64)
		for _, s := range specs[2].Func.Sources() {
			w[s] = 1
		}
		specs[2].Func = agg.NewWeightedAverage(w)
		if agg.UnitBytes(specs[2].Func) == agg.UnitBytes(inst.Specs[2].Func) {
			t.Fatal("record width did not change")
		}
		replan(t, g, specs, nil)
	})
	t.Run("price changed", func(t *testing.T) {
		d := inst.Specs[3].Dest
		replan(t, g, inst.Specs, map[graph.NodeID]int64{d: 9})
	})
	t.Run("node removed", func(t *testing.T) {
		// Remove the first relay (on some path, neither source nor
		// destination) whose removal leaves every pair routable.
		for _, v := range inst.Paths[0] { // spec 0's first source

			if _, isDest := inst.SpecByDest[v]; isDest || isSource(inst, v) {
				continue
			}
			g2, err := failure.RemoveNode(g, v)
			if err != nil {
				t.Fatal(err)
			}
			specs, _, err := failure.PruneSpecs(inst.Specs, v)
			if err != nil {
				t.Fatal(err)
			}
			newInst, err := NewInstance(g2, routing.NewReversePath(g2), specs)
			if err != nil {
				continue // removal disconnected a pair
			}
			checkReplan(t, old, newInst, nil)
			return
		}
		t.Skip("no removable relay on the first path")
	})
}

func isSource(inst *Instance, n graph.NodeID) bool {
	return slices.Contains(inst.pairSrc, n)
}

// TestRouterBreakingTheorem1IsAnError plans with a router that keeps the
// suffix property but breaks path sharing, so Theorem 1 does not apply.
// Source 0 reaches relay 5 over two in-edges, one per destination (7 and
// 8). Under the prices below each in-edge aggregates its destination,
// while 5→6 would carry 0, 1 and 2 raw: values aggregated upstream. Both
// Optimize and Reoptimize must refuse the plan and name the router, the
// edge and the source. (ReversePath cannot produce this: its hop-count
// trees with smallest-ID parents give every source one route to each
// relay.)
func TestRouterBreakingTheorem1IsAnError(t *testing.T) {
	g := graph.NewUndirected(11)
	router := tableRouter{
		{Source: 0, Dest: 7}: {0, 3, 5, 6, 7},
		{Source: 1, Dest: 7}: {1, 3, 5, 6, 7},
		{Source: 0, Dest: 8}: {0, 4, 5, 6, 8},
		{Source: 2, Dest: 8}: {2, 4, 5, 6, 8},
	}
	sum := func(ids ...graph.NodeID) agg.Func {
		w := make(map[graph.NodeID]float64)
		for _, id := range ids {
			w[id] = 1
		}
		return agg.NewWeightedSum(w)
	}
	specs := []agg.Spec{{Dest: 7, Func: sum(0, 1)}, {Dest: 8, Func: sum(0, 2)}}
	prices := map[graph.NodeID]int64{0: 3, 1: 3, 2: 3, 7: 5, 8: 5}
	inst, err := NewInstance(g, router, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Destination 7 alone routes every source once through 5, so its plan
	// is a valid base to replan from.
	one, err := NewInstance(g, router, specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	old, err := OptimizeWithPrices(one, prices)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a plan that breaks Theorem 1", name)
		}
		for _, want := range []string{`router "table"`, "edge 5→6", "source 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not name %s", name, err, want)
			}
		}
	}
	_, err = OptimizeWithPrices(inst, prices)
	check("OptimizeWithPrices", err)
	_, _, err = ReoptimizeWithPrices(old, inst, prices)
	check("ReoptimizeWithPrices", err)
	_, _, err = ReoptimizeWithPrices(nil, inst, prices)
	check("ReoptimizeWithPrices from nothing", err)
}

// TestConcurrentReoptimizeFromSharedPlan replans one cached plan from two
// goroutines with different deltas, as the serving layer's plan cache
// does; run under -race it checks the carried-over solutions are shared
// safely.
func TestConcurrentReoptimizeFromSharedPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	inst := randomInstance(t, rng, 60, 8, 6, reverseRouter)
	old, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	deltas := [][]agg.Spec{inst.Specs[1:], inst.Specs[:len(inst.Specs)-1]}
	insts := make([]*Instance, len(deltas))
	want := make([]*ExportedPlan, len(deltas))
	for i, specs := range deltas {
		if insts[i], err = NewInstance(inst.Net, routing.NewReversePath(inst.Net), specs); err != nil {
			t.Fatal(err)
		}
		fresh, err := Optimize(insts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fresh.Export()
	}
	got := make([]*ExportedPlan, len(deltas))
	errs := make([]error, len(deltas))
	var wg sync.WaitGroup
	for i := range deltas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20 && errs[i] == nil; k++ {
				var p *Plan
				if p, _, errs[i] = Reoptimize(old, insts[i]); errs[i] == nil {
					got[i] = p.Export()
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range deltas {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("delta %d: concurrent replan differs from a from-scratch plan", i)
		}
	}
}

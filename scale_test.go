package m2m

import (
	"runtime"
	"testing"
	"time"

	"m2m/internal/sim"
)

// scaleWorkload is the plan-scale shape: a uniform n-node network with
// n/50 destinations of 20 sources each, at most 4 hops out.
func scaleWorkload(t *testing.T, n int) (*Network, []Spec) {
	t.Helper()
	net := RandomNetwork(n, 1)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests:       n / 50,
		SourcesPerDest: 20,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, specs
}

// TestPlanScale10k is the interactive-planning acceptance test: building a
// 10 000-node uniform topology, drawing a 200-destination workload,
// resolving routes, optimizing the plan and compiling it into an engine
// must all complete within an interactive budget. Under -short the size
// drops to 2000 nodes so the race detector can afford it.
func TestPlanScale10k(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	start := time.Now()
	net, specs := scaleWorkload(t, n)
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if got := len(p.Sol); got == 0 {
		t.Fatal("empty plan at scale")
	}
	if _, _, err := Reoptimize(p, inst); err != nil {
		t.Fatal(err)
	}
	// Generous against slow CI machines; on a 2-vCPU VM the whole
	// pipeline runs in ~0.2 s at n=10000.
	if limit := 10 * time.Second; elapsed > limit {
		t.Fatalf("end-to-end planning at n=%d took %v, want < %v", n, elapsed, limit)
	}
	t.Logf("n=%d: topology+workload+instance+optimize+engine in %v (%d edges solved)", n, elapsed, len(p.Sol))
}

// TestInstanceAllocBound gates the bytes NewInstance allocates for the
// plan-scale workload, where routes come from per-destination walks that
// stop a few hops out rather than whole-network shortest-path trees (68 MB
// at n=10000). The count is deterministic; each bound is twice the
// measured value, rounded up.
func TestInstanceAllocBound(t *testing.T) {
	n, bound := 10000, uint64(26_000_000) // measured 12 992 992
	if testing.Short() {
		n, bound = 2000, 2_300_000 // measured 1 138 408
	}
	net, specs := scaleWorkload(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := net.NewInstance(specs, RouterReversePath); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("n=%d: NewInstance allocated %d bytes", n, got)
	if got > bound {
		t.Errorf("n=%d: NewInstance allocated %d bytes, want <= %d", n, got, bound)
	}
}

// TestEngineAllocBound gates the bytes sim.NewEngine allocates to compile
// the plan-scale workload's plan, now that construction runs over dense
// unit and edge arrays instead of maps keyed by (node, source), (node,
// dest) and unit. The count is deterministic; each bound is twice the
// measured value, rounded up.
func TestEngineAllocBound(t *testing.T) {
	n, bound := 10000, uint64(14_800_000) // measured 7 359 432 (10 583 176 on map-keyed construction)
	if testing.Short() {
		n, bound = 2000, 2_800_000 // measured 1 378 704 (2 012 296)
	}
	net, specs := scaleWorkload(t, n)
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("n=%d: NewEngine allocated %d bytes", n, got)
	if got > bound {
		t.Errorf("n=%d: NewEngine allocated %d bytes, want <= %d", n, got, bound)
	}
}

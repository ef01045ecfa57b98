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

	if got := len(p.Inst.EdgeList); got == 0 {
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
	t.Logf("n=%d: topology+workload+instance+optimize+engine in %v (%d edges solved)", n, elapsed, len(p.Inst.EdgeList))
}

// TestInstanceAllocBound gates the bytes NewInstance allocates for the
// plan-scale workload, where routes come from one reverse-path walk that
// is reset per destination and stops a few hops out, rather than a
// whole-network shortest-path tree per destination (68 MB at n=10000),
// and the edge index is built from one sorted array instead of maps. The
// count is deterministic; each bound is twice the measured value, rounded
// up.
func TestInstanceAllocBound(t *testing.T) {
	n, bound := 10000, uint64(5_600_000) // measured 2 758 792 (12 992 992 with a walk per destination and map-keyed pairs)
	if testing.Short() {
		n, bound = 2000, 1_100_000 // measured 516 808 (1 138 408)
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
// the plan-scale workload's plan: construction runs over dense unit and
// edge arrays instead of maps keyed by (node, source), (node, dest) and
// unit, the message graph is compressed sparse rows instead of a slice
// per message, and each record's operands are derived once. The count is
// deterministic; each bound is twice the measured value, rounded up.
func TestEngineAllocBound(t *testing.T) {
	n, bound := 10000, uint64(6_520_000) // measured 3 255 256 (5 060 344 with a slice per message and two operand passes, 10 583 176 on map-keyed construction)
	if testing.Short() {
		n, bound = 2000, 1_330_000 // measured 664 760 (977 688, 2 012 296)
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

// TestPlanAllocBound gates the allocation counts of the plan path on the
// 1000-node instance of the 1k benchmarks; the counts are deterministic.
// Each edge's cover is a row of one flat array that vcover solves into,
// so Optimize allocates per plan, not per edge (4,294 allocs/op when
// every cover was two maps). A one-destination replan stays at the
// count it had when unchanged covers were shared by reference, and Units
// allocates only its result. NewEngine allocates per plan too: 76
// allocs/op, 689 when the message graph grew a slice per message.
// NewInstance allocates per spec: 97 allocs/op, 117 when it copied every
// spec's source list twice and 508 when every route was a slice of its
// own and a map held them.
func TestPlanAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled solver scratch at random under the race detector")
	}
	net, inst := instance1k(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := net.NewInstance(inst.Specs[1:], RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, gate := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"NewInstance", 100, func() { _, _ = net.NewInstance(inst.Specs, RouterReversePath) }},
		{"Optimize", 1500, func() { _, _ = Optimize(inst) }},
		{"Reoptimize", 26, func() { _, _, _ = Reoptimize(p, inst2) }},
		{"Units", 1, func() { _ = p.Units() }},
		{"NewEngine", 152, func() { _, _ = sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}) }},
	} {
		if got := testing.AllocsPerRun(20, gate.run); got > gate.bound {
			t.Errorf("%s on the 1k instance: %.0f allocs/op, want <= %.0f", gate.name, got, gate.bound)
		} else {
			t.Logf("%s: %.0f allocs/op", gate.name, got)
		}
	}
}

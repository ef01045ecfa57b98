package m2m

// One benchmark per paper table/figure (each regenerates the corresponding
// experiment series at reduced seed count), plus micro-benchmarks of the
// core algorithms. Regenerate the full figures with:
//
//	go run ./cmd/m2mbench -experiment all

import (
	"context"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/experiments"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/vcover"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Quick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (vary the number of aggregation
// functions; optimal vs multicast vs aggregation vs flood).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4 (vary sources per function).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (vary the dispersion factor).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (network-size scaling).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (suppression override policies).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkStateSize regenerates the Theorem 3 state-bound table.
func BenchmarkStateSize(b *testing.B) { benchExperiment(b, "state") }

// BenchmarkIncremental regenerates the Corollary 1 locality table.
func BenchmarkIncremental(b *testing.B) { benchExperiment(b, "incremental") }

// BenchmarkRouterAblation regenerates the routing ablation.
func BenchmarkRouterAblation(b *testing.B) { benchExperiment(b, "routers") }

// BenchmarkMilestones regenerates the milestone trade-off table.
func BenchmarkMilestones(b *testing.B) { benchExperiment(b, "milestones") }

// BenchmarkMergeAblation regenerates the message-merging ablation.
func BenchmarkMergeAblation(b *testing.B) { benchExperiment(b, "merge") }

// BenchmarkOutOfNetwork regenerates the out-of-network control comparison.
func BenchmarkOutOfNetwork(b *testing.B) { benchExperiment(b, "outofnet") }

// BenchmarkBroadcastAblation regenerates the broadcast ablation.
func BenchmarkBroadcastAblation(b *testing.B) { benchExperiment(b, "broadcast") }

// BenchmarkScheduling regenerates the TDMA scheduling table.
func BenchmarkScheduling(b *testing.B) { benchExperiment(b, "schedule") }

// BenchmarkLifetime regenerates the first-node-death lifetime table.
func BenchmarkLifetime(b *testing.B) { benchExperiment(b, "lifetime") }

// BenchmarkDistributed regenerates the in-network optimization table.
func BenchmarkDistributed(b *testing.B) { benchExperiment(b, "distributed") }

// BenchmarkOverrideState regenerates the flexible-override ablation.
func BenchmarkOverrideState(b *testing.B) { benchExperiment(b, "override-state") }

// BenchmarkLinkLoss regenerates the ARQ-under-loss table.
func BenchmarkLinkLoss(b *testing.B) { benchExperiment(b, "loss") }

// BenchmarkAdaptive regenerates the adaptive-override table.
func BenchmarkAdaptive(b *testing.B) { benchExperiment(b, "adaptive") }

// BenchmarkChaos regenerates the fault-injection degradation table.
func BenchmarkChaos(b *testing.B) { benchExperiment(b, "chaos") }

// BenchmarkAsync regenerates the event-driven timing-regime table.
func BenchmarkAsync(b *testing.B) { benchExperiment(b, "async") }

// BenchmarkChurn regenerates the partition/epoch-fence/heal-cost table.
func BenchmarkChurn(b *testing.B) { benchExperiment(b, "churn") }

// BenchmarkBattery regenerates the depletion/evacuation lifetime table.
func BenchmarkBattery(b *testing.B) { benchExperiment(b, "battery") }

// BenchmarkByzantine regenerates the adversarial accuracy-vs-bytes table.
func BenchmarkByzantine(b *testing.B) { benchExperiment(b, "byzantine") }

// BenchmarkCollision regenerates the contention coverage/energy table
// (unscheduled vs backoff vs TDMA vs TDMA over a minimum-degree tree).
func BenchmarkCollision(b *testing.B) { benchExperiment(b, "collision") }

// --- Micro-benchmarks ---

// evalSetup builds the paper's 68-node evaluation network and a workload
// instance over it once, so round benchmarks don't pay for (or re-build)
// the topology twice.
func evalSetup(b *testing.B, destFrac float64) (*Network, *Instance) {
	b.Helper()
	net := GreatDuckIsland()
	specs, err := net.GenerateWorkload(WorkloadConfig{
		DestFraction:   destFrac,
		SourcesPerDest: 20,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		b.Fatal(err)
	}
	return net, inst
}

func evalInstance(b *testing.B, destFrac float64) *Instance {
	b.Helper()
	_, inst := evalSetup(b, destFrac)
	return inst
}

// BenchmarkOptimize measures full-network plan optimization on the paper's
// 68-node network with 20% destinations × 20 sources.
func BenchmarkOptimize(b *testing.B) {
	inst := evalInstance(b, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// instance1k is a 1000-node uniform random topology with 20 destinations ×
// 20 sources, kept as a testing.B input so CI's bench-smoke exercises the
// planner and engine construction beyond the 68-node evaluation network.
func instance1k(b testing.TB) (*Network, *Instance) {
	b.Helper()
	net := RandomNetwork(1000, 1)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests:       20,
		SourcesPerDest: 20,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		b.Fatal(err)
	}
	return net, inst
}

// BenchmarkOptimize1k measures full optimization of the 1000-node
// instance.
func BenchmarkOptimize1k(b *testing.B) {
	_, inst := instance1k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewInstance1k measures resolving the 1000-node workload into
// an instance: routing every pair, the suffix check and the edge index.
func BenchmarkNewInstance1k(b *testing.B) {
	net, inst := instance1k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.NewInstance(inst.Specs, RouterReversePath); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTreeBuild measures one global routing tree build on a 45-node
// random network (a resilient-mix scenario's size) and on the 1000-node
// network of the 1k benchmarks.
func benchTreeBuild(b *testing.B, build func(*graph.Undirected) error) {
	for _, size := range []struct {
		name  string
		nodes int
	}{{"45", 45}, {"1k", 1000}} {
		net := RandomNetwork(size.nodes, 1)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := build(net.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewMinDegreeTree measures building the low-degree routing
// tree: the center search and the swap local search.
func BenchmarkNewMinDegreeTree(b *testing.B) {
	benchTreeBuild(b, func(g *graph.Undirected) error {
		_, err := routing.NewMinDegreeTree(g)
		return err
	})
}

// BenchmarkNewSharedTree measures building the shortest-path routing
// tree at the network center.
func BenchmarkNewSharedTree(b *testing.B) {
	benchTreeBuild(b, func(g *graph.Undirected) error {
		_, err := routing.NewSharedTree(g)
		return err
	})
}

// BenchmarkScenarioSetup measures setting up 100 generated fault
// scenarios (seeds 100001–100100, resilient-mix's first): drawing each
// scenario and building its run. The run adopts the network and workload
// the generator drew, and plans them once.
func BenchmarkScenarioSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for seed := int64(100001); seed <= 100100; seed++ {
			sc, err := GenerateScenario(seed)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := NewScenarioRun(sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRandomNetwork10k measures plan-10k's topology stage: a
// 10,000-node uniform layout repaired to be connected, and its
// connectivity graph.
func BenchmarkRandomNetwork10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomNetwork(10000, 1)
	}
}

// BenchmarkGenerateWorkload10k measures plan-10k's workload stage: 200
// destinations with 20 sources each, drawn by hop dispersion d = 0.9
// within 4 hops.
func BenchmarkGenerateWorkload10k(b *testing.B) {
	net := RandomNetwork(10000, 1)
	cfg := WorkloadConfig{NumDests: 200, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.GenerateWorkload(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// instance10k is plan-10k's shape: a 10,000-node uniform random topology
// with 200 destinations × 20 sources.
func instance10k(b *testing.B) (*Network, *Instance) {
	b.Helper()
	net := RandomNetwork(10000, 1)
	specs, err := net.GenerateWorkload(WorkloadConfig{NumDests: 200, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		b.Fatal(err)
	}
	return net, inst
}

// BenchmarkNewInstance10k measures routing plan-10k's workload: one job
// per destination, spread over GOMAXPROCS router forks.
func BenchmarkNewInstance10k(b *testing.B) {
	net, inst := instance10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.NewInstance(inst.Specs, RouterReversePath); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize10k measures solving plan-10k's edges into one flat
// cover array.
func BenchmarkOptimize10k(b *testing.B) {
	_, inst := instance10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngine10k measures compiling plan-10k's optimal plan.
func BenchmarkNewEngine10k(b *testing.B) {
	net, inst := instance10k(b)
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReoptimize1k measures the incremental replan of the 1000-node
// plan after one destination's spec is dropped (Corollary 1): only the
// edges the dropped pairs crossed are solved again.
func BenchmarkReoptimize1k(b *testing.B) {
	net, inst := instance1k(b)
	old, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	inst2, err := net.NewInstance(inst.Specs[1:], RouterReversePath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Reoptimize(old, inst2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngine1k measures compiling the 1000-node instance's optimal
// plan into an engine: dependencies, message merging and ordering, energy
// accounting and the flat round program.
func BenchmarkNewEngine1k(b *testing.B) {
	net, inst := instance1k(b)
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngineGDI measures compiling the optimal plan of the paper's
// 68-node network with 20% destinations × 20 sources, the scale of a
// resilient-mix scenario, where a fixed per-call cost would show.
func BenchmarkNewEngineGDI(b *testing.B) {
	net, inst := evalSetup(b, 0.2)
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// engine1k compiles the optimal plan of the 1000-node instance, with
// destination i's function replaced by remix(i, f) when remix is non-nil,
// and returns it with a full reading set.
func engine1k(b *testing.B, remix func(i int, f Func) Func) (*sim.Engine, map[NodeID]float64) {
	b.Helper()
	net, inst := instance1k(b)
	if remix != nil {
		specs := make([]Spec, len(inst.Specs))
		for i, sp := range inst.Specs {
			specs[i] = Spec{Dest: sp.Dest, Func: remix(i, sp.Func)}
		}
		var err error
		if inst, err = net.NewInstance(specs, RouterReversePath); err != nil {
			b.Fatal(err)
		}
	}
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		b.Fatal(err)
	}
	readings := make(map[NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[NodeID(i)] = float64(i%97) / 8
	}
	return eng, readings
}

// benchRunInto measures one zero-allocation round of eng.
func benchRunInto(b *testing.B, eng *sim.Engine, readings map[NodeID]float64) {
	st := eng.NewRoundState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunInto(readings, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunInto1k measures one fault-free round of the 1000-node
// instance's weighted sums into a caller-held RoundState.
func BenchmarkRunInto1k(b *testing.B) {
	eng, readings := engine1k(b, nil)
	benchRunInto(b, eng, readings)
}

// BenchmarkRunIntoKinds1k is BenchmarkRunInto1k with the destinations'
// functions cycling through the seven table-driven kinds and a q-digest,
// which runs through its Func methods.
func BenchmarkRunIntoKinds1k(b *testing.B) {
	eng, readings := engine1k(b, func(i int, f Func) Func {
		w := make(map[NodeID]float64)
		for _, s := range f.Sources() {
			w[s] = f.(*agg.WeightedSum).Weight(s)
		}
		switch i % 8 {
		case 0:
			return f
		case 1:
			return agg.NewWeightedAverage(w)
		case 2:
			return agg.NewWeightedStdDev(w)
		case 3:
			return agg.NewMin(f.Sources())
		case 4:
			return agg.NewMax(f.Sources())
		case 5:
			return agg.NewRange(f.Sources())
		case 6:
			return agg.NewCountAbove(f.Sources(), 6)
		}
		q, err := agg.NewQDigest(f.Sources(), 4, 0, 12, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		return q
	})
	benchRunInto(b, eng, readings)
}

// BenchmarkOptimizeHeavy measures optimization with every node a
// destination.
func BenchmarkOptimizeHeavy(b *testing.B) {
	inst := evalInstance(b, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexCover measures one single-edge problem of realistic size
// (20 sources × 10 destinations, dense).
func BenchmarkVertexCover(b *testing.B) {
	p := &vcover.Problem{}
	for i := 0; i < 20; i++ {
		p.U = append(p.U, vcover.Vertex{Key: i, Weight: 6})
	}
	for j := 0; j < 10; j++ {
		p.V = append(p.V, vcover.Vertex{Key: 100 + j, Weight: 6})
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			if (i+j)%2 == 0 {
				p.Edges = append(p.Edges, [2]int{i, j})
			}
		}
	}
	var sol vcover.Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vcover.Solve(p, &sol); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds the optimal-plan engine and a full reading set for
// the round benchmarks.
func benchEngine(b *testing.B) (*sim.Engine, map[NodeID]float64) {
	b.Helper()
	net, inst := evalSetup(b, 0.2)
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(p, radio.DefaultModel(), sim.Options{MergeMessages: true})
	if err != nil {
		b.Fatal(err)
	}
	readings := make(map[NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[NodeID(i)] = float64(i)
	}
	return eng, readings
}

// BenchmarkExecuteRound measures one simulated round of the optimal plan
// through the public Run path (pooled state; allocates the result and its
// Values map).
func BenchmarkExecuteRound(b *testing.B) {
	eng, readings := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(readings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteRoundReuse measures the zero-allocation path: one round
// into a caller-held RoundState.
func BenchmarkExecuteRoundReuse(b *testing.B) {
	eng, readings := benchEngine(b)
	st := eng.NewRoundState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunInto(readings, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteRoundConcurrent measures batched round throughput over
// one shared engine (64 rounds per op across GOMAXPROCS workers).
func BenchmarkExecuteRoundConcurrent(b *testing.B) {
	eng, readings := benchEngine(b)
	batch := make([]map[NodeID]float64, 64)
	for i := range batch {
		batch[i] = readings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunConcurrent(context.Background(), batch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReoptimize measures incremental replanning after one workload
// change versus BenchmarkOptimize's from-scratch cost.
func BenchmarkReoptimize(b *testing.B) {
	inst := evalInstance(b, 0.2)
	old, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.Reoptimize(old, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppressedRound measures one temporally suppressed round with
// ~10% of sources changing.
func BenchmarkSuppressedRound(b *testing.B) {
	net, inst := evalSetup(b, 0.2)
	p, err := Optimize(inst)
	if err != nil {
		b.Fatal(err)
	}
	sup, err := NewSuppressor(p, net, PolicyMedium)
	if err != nil {
		b.Fatal(err)
	}
	deltas := make(map[NodeID]float64)
	for i := 0; i < net.Len(); i += 10 {
		deltas[NodeID(i)] = 1.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sup.Round(deltas); err != nil {
			b.Fatal(err)
		}
	}
}

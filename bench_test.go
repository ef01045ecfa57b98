package m2m

// One benchmark per paper table/figure (each regenerates the corresponding
// experiment series at reduced seed count), plus micro-benchmarks of the
// core algorithms. Regenerate the full figures with:
//
//	go run ./cmd/m2mbench -experiment all

import (
	"context"

	"testing"

	"m2m/internal/experiments"
	"m2m/internal/plan"
	"m2m/internal/radio"
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
func instance1k(b *testing.B) (*Network, *Instance) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vcover.Solve(p); err != nil {
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

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) plus the ablations called out in DESIGN.md. Each
// runner returns a tablefmt.Table whose rows are the figure's x-axis and
// whose columns are its series.
package experiments

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
	"m2m/internal/topology"
)

// Config controls experiment scale. The defaults mirror the paper;
// Quick() shrinks everything for smoke tests.
type Config struct {
	// Seeds are the deterministic workload/network seeds averaged over.
	Seeds []int64
	// Timesteps is the number of suppressed rounds per seed (Figure 7).
	Timesteps int
	// Radio is the energy model shared by all algorithms.
	Radio radio.Model
}

// Default returns the full-scale configuration used by EXPERIMENTS.md.
func Default() Config {
	return Config{Seeds: []int64{1, 2, 3}, Timesteps: 10, Radio: radio.DefaultModel()}
}

// Quick returns a reduced configuration for fast smoke tests.
func Quick() Config {
	return Config{Seeds: []int64{1}, Timesteps: 4, Radio: radio.DefaultModel()}
}

// Algorithm names used as table columns.
const (
	ColOptimal     = "optimal"
	ColMulticast   = "multicast"
	ColAggregation = "aggregation"
	ColFlood       = "flood"
)

// gdi returns the evaluation network (68 nodes, 50 m range).
func gdi() (*topology.Layout, *graph.Undirected, error) { return topology.GreatDuckIsland() }

// roundEnergy builds the requested plan over inst and returns its
// per-round energy in millijoules.
func roundEnergy(cfg Config, inst *plan.Instance, method plan.Method) (float64, error) {
	var p *plan.Plan
	var err error
	switch method {
	case plan.MethodOptimal:
		p, err = plan.Optimize(inst)
	case plan.MethodMulticast:
		p = plan.Multicast(inst)
	case plan.MethodAggregation:
		p = plan.AggregateASAP(inst)
	default:
		return 0, fmt.Errorf("experiments: unknown method %q", method)
	}
	if err != nil {
		return 0, err
	}
	eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		return 0, err
	}
	res, err := eng.Run(constantReadings(inst.Net.Len()))
	if err != nil {
		return 0, err
	}
	return radio.Millijoules(res.EnergyJ), nil
}

// floodEnergy returns one flooded round's energy in millijoules.
func floodEnergy(cfg Config, net *graph.Undirected, specs []agg.Spec) (float64, error) {
	res, err := sim.Flood(net, specs, cfg.Radio, constantReadings(net.Len()))
	if err != nil {
		return 0, err
	}
	return radio.Millijoules(res.EnergyJ), nil
}

// constantReadings gives every node a distinct deterministic reading; the
// energy accounting is reading-independent, this just keeps value checks
// meaningful.
func constantReadings(n int) map[graph.NodeID]float64 {
	r := make(map[graph.NodeID]float64, n)
	for i := 0; i < n; i++ {
		r[graph.NodeID(i)] = float64(i%17) + 0.5
	}
	return r
}

// buildInstance wires a workload onto a network with the given router.
func buildInstance(net *graph.Undirected, specs []agg.Spec, shared bool) (*plan.Instance, error) {
	var router routing.Router
	if shared {
		st, err := routing.NewSharedTree(net)
		if err != nil {
			return nil, err
		}
		router = st
	} else {
		router = routing.NewReversePath(net)
	}
	return plan.NewInstance(net, router, specs)
}

// averagedRow runs f once per seed and returns the per-column means.
func averagedRow(cfg Config, nCols int, f func(seed int64) ([]float64, error)) ([]float64, error) {
	sums := make([]float64, nCols)
	for _, seed := range cfg.Seeds {
		ys, err := f(seed)
		if err != nil {
			return nil, err
		}
		if len(ys) != nCols {
			return nil, fmt.Errorf("experiments: row has %d values, want %d", len(ys), nCols)
		}
		for i, y := range ys {
			sums[i] += y
		}
	}
	for i := range sums {
		sums[i] /= float64(len(cfg.Seeds))
	}
	return sums, nil
}

// Runner is a named experiment producing one table.
type Runner struct {
	ID    string
	Paper string // which paper artifact it reproduces
	Run   func(Config) (*tablefmt.Table, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "fig3", Paper: "Figure 3 (vary number of aggregation functions)", Run: Fig3},
		{ID: "fig4", Paper: "Figure 4 (vary sources per function)", Run: Fig4},
		{ID: "fig5", Paper: "Figure 5 (vary dispersion factor)", Run: Fig5},
		{ID: "fig6", Paper: "Figure 6 (increasing network size)", Run: Fig6},
		{ID: "fig7", Paper: "Figure 7 (suppression override policies)", Run: Fig7},
		{ID: "state", Paper: "Theorem 3 (in-network state)", Run: StateSize},
		{ID: "incremental", Paper: "Corollary 1 (incremental re-optimization)", Run: Incremental},
		{ID: "routers", Paper: "Section 4 discussion (routing ablation)", Run: RouterAblation},
		{ID: "milestones", Paper: "Section 3 (milestone trade-off)", Run: Milestones},
		{ID: "merge", Paper: "Theorem 2 (message merging ablation)", Run: MergeAblation},
		{ID: "outofnet", Paper: "Section 1 (out-of-network control strawman)", Run: OutOfNetwork},
		{ID: "broadcast", Paper: "Section 4 footnote 1 (broadcast + selective listening)", Run: BroadcastAblation},
		{ID: "schedule", Paper: "Section 3 (TDMA transmission scheduling)", Run: Scheduling},
		{ID: "lifetime", Paper: "Section 1 (first-node-death lifetime)", Run: Lifetime},
		{ID: "distributed", Paper: "Section 2.3 (in-network optimization)", Run: Distributed},
		{ID: "override-state", Paper: "Section 3 (flexible override alternative)", Run: OverrideState},
		{ID: "loss", Paper: "Section 3 (route stability; ARQ under link loss)", Run: LinkLoss},
		{ID: "adaptive", Paper: "Section 4 summary (volatility-adaptive override)", Run: Adaptive},
		{ID: "chaos", Paper: "robustness extension (fault injection & recovery)", Run: Chaos},
		{ID: "async", Paper: "robustness extension (latency, duplication, deadlines)", Run: Async},
		{ID: "churn", Paper: "robustness extension (partitions, revival, epoch fencing)", Run: Churn},
		{ID: "battery", Paper: "robustness extension (energy depletion & evacuation replans)", Run: Battery},
		{ID: "byzantine", Paper: "robustness extension (adversarial injection & robust sketches)", Run: Byzantine},
		{ID: "collision", Paper: "robustness extension (contention, TDMA, low-degree trees)", Run: Collision},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

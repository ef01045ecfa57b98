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
	"m2m/internal/workload"
)

// evalWorkload generates the standard evaluation workload on the GDI
// network with the given destination fraction.
func evalWorkload(net *graph.Undirected, destFrac float64, seed int64) ([]agg.Spec, error) {
	return workload.Generate(net, workload.Config{
		DestFraction:   destFrac,
		SourcesPerDest: evalSourcesPerDest,
		Dispersion:     evalDispersion,
		MaxHops:        evalMaxHops,
		Seed:           seed,
	})
}

// StateSize validates Theorem 3 empirically: total in-network table
// entries of the optimal plan versus the bound min(Σ|T_s|, Σ|A_d|) and the
// two pure approaches, across workload sizes.
func StateSize(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Theorem 3 — In-network state (table entries) vs workload size",
		"pct_dests", "optimal_state", "multicast_state", "aggregation_state", "bound_min_trees", "optimal_max_node")
	for pct := 20; pct <= 100; pct += 20 {
		ys, err := averagedRow(cfg, 5, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			opt, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			entries := func(p *plan.Plan) (float64, error) {
				t, err := p.BuildTables()
				if err != nil {
					return 0, err
				}
				return float64(t.TotalEntries()), nil
			}
			eo, err := entries(opt)
			if err != nil {
				return nil, err
			}
			optTab, err := opt.BuildTables()
			if err != nil {
				return nil, err
			}
			maxNode := 0
			for n := 0; n < inst.Net.Len(); n++ {
				if c := optTab.NodeEntries(graph.NodeID(n)); c > maxNode {
					maxNode = c
				}
			}
			em, err := entries(plan.Multicast(inst))
			if err != nil {
				return nil, err
			}
			ea, err := entries(plan.AggregateASAP(inst))
			if err != nil {
				return nil, err
			}
			sumT, sumA := 0, 0
			for _, s := range inst.Sources() {
				sumT += inst.MulticastSize(s)
			}
			for _, d := range inst.Dests() {
				sumA += inst.AggTreeSize(d)
			}
			bound := sumT
			if sumA < bound {
				bound = sumA
			}
			return []float64{eo, em, ea, float64(bound), float64(maxNode)}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Incremental quantifies Corollary 1: after adding one source to one
// destination, how many single-edge problems must be re-solved and how
// many node-visible solutions change, versus planning from scratch.
func Incremental(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Corollary 1 — Incremental re-optimization after adding one source",
		"pct_dests", "edges_total", "edges_resolved", "edges_changed", "pct_reused",
		"full_dissem_B", "diff_dissem_B")
	for pct := 20; pct <= 100; pct += 20 {
		ys, err := averagedRow(cfg, 6, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, true)
			if err != nil {
				return nil, err
			}
			old, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			// Add one source to the first destination.
			d := inst.Dests()[0]
			newSpecs, err := addOneSource(inst, d, seed)
			if err != nil {
				return nil, err
			}
			newInst, err := plan.NewInstance(inst.Net, inst.Router, newSpecs)
			if err != nil {
				return nil, err
			}
			newPlan, stats, err := plan.Reoptimize(old, newInst)
			if err != nil {
				return nil, err
			}
			fullB, diffB, err := disseminationColumns(inst, newInst, old, newPlan, cfg.Radio)
			if err != nil {
				return nil, err
			}
			reusedPct := 100 * float64(stats.EdgesReused) / float64(stats.EdgesTotal)
			return []float64{
				float64(stats.EdgesTotal),
				float64(stats.EdgesSolved),
				float64(stats.EdgesChangedSolution),
				reusedPct,
				fullB,
				diffB,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

func addOneSource(inst *plan.Instance, d graph.NodeID, seed int64) ([]agg.Spec, error) {
	var out []agg.Spec
	for _, sp := range inst.Specs {
		if sp.Dest != d {
			out = append(out, sp)
			continue
		}
		// Preserve the existing weights so the only change visible to the
		// network is the added source.
		wf := sp.Func.(interface{ Weight(graph.NodeID) float64 })
		w := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			w[s] = wf.Weight(s)
		}
		added := false
		for cand := 0; cand < inst.Net.Len(); cand++ {
			s := graph.NodeID((int(seed) + cand) % inst.Net.Len())
			if s == d || sp.Func.HasSource(s) {
				continue
			}
			w[s] = 1
			added = true
			break
		}
		if !added {
			return nil, fmt.Errorf("experiments: no candidate source for %d", d)
		}
		out = append(out, agg.Spec{Dest: d, Func: agg.NewWeightedSum(w)})
	}
	return out, nil
}

// RouterAblation compares the two routers on the same workloads: energy of
// the optimal plan and how many directed edges the workloads occupy (a
// proxy for path sharing).
func RouterAblation(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Routing ablation — reverse-path vs shared-tree (optimal plan)",
		"pct_dests", "reverse_mJ", "shared_mJ", "reverse_edges", "shared_edges")
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			rev, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			sh, err := buildInstance(net, specs, true)
			if err != nil {
				return nil, err
			}
			eRev, err := roundEnergy(cfg, rev, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			eSh, err := roundEnergy(cfg, sh, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			return []float64{
				eRev, eSh,
				float64(len(rev.EdgeList)),
				float64(len(sh.EdgeList)),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Milestones explores the Section 3 flexibility trade-off: contracting
// routes onto fewer milestones loses aggregation opportunities and raises
// energy. x is the approximate fraction of intermediate nodes kept.
func Milestones(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Milestones — optimal-plan energy vs fraction of milestone nodes",
		"keep_fraction", "optimal_mJ", "virtual_edges")
	type level struct {
		frac float64
		keep routing.KeepFunc
	}
	levels := []level{
		{1.0, routing.KeepAll},
		{0.5, routing.KeepEveryKth(2)},
		{0.25, routing.KeepEveryKth(4)},
		{0.125, routing.KeepEveryKth(8)},
		{0.0, routing.KeepNone},
	}
	for _, lv := range levels {
		keep := lv.keep
		ys, err := averagedRow(cfg, 2, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, 0.2, seed)
			if err != nil {
				return nil, err
			}
			mr := routing.NewMilestoneRouter(net, routing.NewReversePath(net), keep)
			inst, err := plan.NewInstance(net, mr, specs)
			if err != nil {
				return nil, err
			}
			p, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{
				MergeMessages: true,
				EdgeHops:      mr.EdgeHops,
			})
			if err != nil {
				return nil, err
			}
			res, err := eng.Run(constantReadings(net.Len()))
			if err != nil {
				return nil, err
			}
			return []float64{radio.Millijoules(res.EnergyJ), float64(len(inst.EdgeList))}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(lv.frac, ys...)
	}
	return tbl, nil
}

// MergeAblation measures the value of Theorem 2's message merging: energy
// with one message per edge versus one message per unit.
func MergeAblation(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Merging ablation — optimal-plan energy, merged vs per-unit messages",
		"pct_dests", "merged_mJ", "per_unit_mJ", "savings_pct")
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			p, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			run := func(merge bool) (float64, error) {
				eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: merge})
				if err != nil {
					return 0, err
				}
				res, err := eng.Run(constantReadings(net.Len()))
				if err != nil {
					return 0, err
				}
				return radio.Millijoules(res.EnergyJ), nil
			}
			merged, err := run(true)
			if err != nil {
				return nil, err
			}
			perUnit, err := run(false)
			if err != nil {
				return nil, err
			}
			return []float64{merged, perUnit, 100 * (perUnit - merged) / perUnit}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

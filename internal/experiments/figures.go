package experiments

import (
	"math/rand"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// evaluation constants from Section 4.
const (
	evalSourcesPerDest = 20
	evalDispersion     = 0.9
	evalMaxHops        = 4
)

// Fig3 varies the number of aggregation functions: destinations are
// 10%..100% of the 68-node network, each aggregating 20 sources with
// dispersion 0.9.
func Fig3(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Figure 3 — Avg. round energy (mJ) vs percent of nodes as destinations",
		"pct_dests", ColOptimal, ColMulticast, ColAggregation, ColFlood)
	for pct := 10; pct <= 100; pct += 10 {
		frac := float64(pct) / 100
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   frac,
				SourcesPerDest: evalSourcesPerDest,
				Dispersion:     evalDispersion,
				MaxHops:        evalMaxHops,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			eOpt, err := roundEnergy(cfg, inst, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			eMc, err := roundEnergy(cfg, inst, plan.MethodMulticast)
			if err != nil {
				return nil, err
			}
			eAg, err := roundEnergy(cfg, inst, plan.MethodAggregation)
			if err != nil {
				return nil, err
			}
			eFl, err := floodEnergy(cfg, net, specs)
			if err != nil {
				return nil, err
			}
			return []float64{eOpt, eMc, eAg, eFl}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Fig4 varies the size of the aggregation functions: 20% of nodes are
// destinations, each aggregating 5..40 sources.
func Fig4(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Figure 4 — Avg. round energy (mJ) vs sources per destination",
		"sources_per_dest", ColOptimal, ColMulticast, ColAggregation, ColFlood)
	for srcs := 5; srcs <= 40; srcs += 5 {
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.2,
				SourcesPerDest: srcs,
				Dispersion:     evalDispersion,
				MaxHops:        evalMaxHops,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			eOpt, err := roundEnergy(cfg, inst, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			eMc, err := roundEnergy(cfg, inst, plan.MethodMulticast)
			if err != nil {
				return nil, err
			}
			eAg, err := roundEnergy(cfg, inst, plan.MethodAggregation)
			if err != nil {
				return nil, err
			}
			eFl, err := floodEnergy(cfg, net, specs)
			if err != nil {
				return nil, err
			}
			return []float64{eOpt, eMc, eAg, eFl}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(srcs), ys...)
	}
	return tbl, nil
}

// Fig5 varies the dispersion factor d from 0 to 1 with 20% destinations
// and 20 sources drawn from hops 1..4 (flood omitted, as in the paper).
func Fig5(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Figure 5 — Avg. round energy (mJ) vs dispersion factor d",
		"dispersion", ColOptimal, ColMulticast, ColAggregation)
	for i := 0; i <= 10; i += 2 {
		d := float64(i) / 10
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.2,
				SourcesPerDest: evalSourcesPerDest,
				Dispersion:     d,
				MaxHops:        evalMaxHops,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			eOpt, err := roundEnergy(cfg, inst, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			eMc, err := roundEnergy(cfg, inst, plan.MethodMulticast)
			if err != nil {
				return nil, err
			}
			eAg, err := roundEnergy(cfg, inst, plan.MethodAggregation)
			if err != nil {
				return nil, err
			}
			return []float64{eOpt, eMc, eAg}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(d, ys...)
	}
	return tbl, nil
}

// Fig6 scales the network from 50 to 250 nodes at constant density; 25% of
// nodes are destinations, each aggregating 15% of all nodes as sources
// drawn uniformly from the network (flood omitted, as in the paper).
func Fig6(cfg Config) (*tablefmt.Table, error) {
	tbl := tablefmt.New(
		"Figure 6 — Avg. round energy (mJ) vs network size",
		"nodes", ColOptimal, ColMulticast, ColAggregation)
	for n := 50; n <= 250; n += 50 {
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
			_, net := topology.Scaled(n, seed)
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.25,
				SourcesPerDest: int(0.15 * float64(n)),
				MaxHops:        0, // uniform network-wide sources
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			eOpt, err := roundEnergy(cfg, inst, plan.MethodOptimal)
			if err != nil {
				return nil, err
			}
			eMc, err := roundEnergy(cfg, inst, plan.MethodMulticast)
			if err != nil {
				return nil, err
			}
			eAg, err := roundEnergy(cfg, inst, plan.MethodAggregation)
			if err != nil {
				return nil, err
			}
			return []float64{eOpt, eMc, eAg}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(n), ys...)
	}
	return tbl, nil
}

// Fig7 studies temporal suppression with the three override policies over
// change probabilities 0..0.3: 3 random networks, 30% destinations with 25
// sources each, averaged over Timesteps rounds. The y-values are the
// percent energy improvement of each override policy over executing the
// default plan with plain suppression (see EXPERIMENTS.md for the
// baseline-interpretation note).
func Fig7(cfg Config) (*tablefmt.Table, error) {
	tbl := tablefmt.New(
		"Figure 7 — Percent improvement vs change probability",
		"change_prob", "aggressive", "medium", "conservative")
	policies := []sim.Policy{sim.PolicyAggressive, sim.PolicyMedium, sim.PolicyConservative}
	for pi := 0; pi <= 6; pi++ {
		p := float64(pi) * 0.05
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
			l := topology.UniformRandom(topology.GDINodes, topology.GDIArea(), seed)
			net := l.EnsureConnected(radio.DefaultRangeMeters)
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.3,
				SourcesPerDest: 25,
				Dispersion:     evalDispersion,
				MaxHops:        evalMaxHops,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			pl, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			base, err := sim.NewSuppressor(pl, cfg.Radio, sim.PolicyNone)
			if err != nil {
				return nil, err
			}
			sups := make([]*sim.Suppressor, len(policies))
			for i, pol := range policies {
				sups[i], err = sim.NewSuppressor(pl, cfg.Radio, pol)
				if err != nil {
					return nil, err
				}
			}
			rng := rand.New(rand.NewSource(seed * 7919))
			var eBase float64
			ePol := make([]float64, len(policies))
			for round := 0; round < cfg.Timesteps; round++ {
				deltas := make(map[graph.NodeID]float64)
				for u := 0; u < net.Len(); u++ {
					if rng.Float64() < p {
						deltas[graph.NodeID(u)] = rng.NormFloat64()
					}
				}
				rb, err := base.Round(deltas)
				if err != nil {
					return nil, err
				}
				eBase += rb.EnergyJ
				for i, sp := range sups {
					r, err := sp.Round(deltas)
					if err != nil {
						return nil, err
					}
					ePol[i] += r.EnergyJ
				}
			}
			out := make([]float64, len(policies))
			for i := range policies {
				if eBase > 0 {
					out[i] = 100 * (eBase - ePol[i]) / eBase
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(p, ys...)
	}
	return tbl, nil
}

package experiments

import (
	"m2m/internal/chaos"
	"m2m/internal/failure"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
	"m2m/internal/wire"
)

// chaosRetries is the stop-and-wait budget used throughout the chaos
// harness (matches the ResilientSession default).
const chaosRetries = 3

// Chaos measures energy and accuracy degradation under injected faults:
// per-round energy (retransmissions included) and the fraction of
// destination-rounds served fresh (exact), across loss rates, without and
// with a mid-run node crash. The crash scenario replans incrementally at
// the crash round (Corollary 1) and charges the table-diff dissemination,
// so the crash columns show the healed steady state plus the one-time
// recovery cost.
func Chaos(cfg Config) (*tablefmt.Table, error) {
	_, net, err := gdi()
	if err != nil {
		return nil, err
	}
	tbl := tablefmt.New(
		"Chaos — energy and accuracy vs loss rate, fault-free vs one crash",
		"loss_pct", "nofail_mJ", "nofail_fresh_pct", "crash_mJ", "crash_fresh_pct", "replan_mJ")
	for _, lossPct := range []int{0, 5, 10, 20} {
		ys, err := averagedRow(cfg, 5, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, 0.2, seed)
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
			eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
			if err != nil {
				return nil, err
			}
			readings := constantReadings(net.Len())
			loss := float64(lossPct) / 100

			// Fault-free topology, loss only.
			inj := chaos.New(seed).WithUniformLoss(loss)
			nofailJ, nofailFresh := 0.0, 0.0
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := eng.RunLossy(r, readings, inj, chaosRetries)
				if err != nil {
					return nil, err
				}
				nofailJ += res.EnergyJ
				nofailFresh += freshFraction(res)
			}

			// Same loss plus one crash at round 1; the plan is repaired
			// incrementally at the crash round and the diff disseminated.
			dead := specs[0].Func.Sources()[0]
			const crashRound = 1
			cinj := chaos.New(seed).WithUniformLoss(loss).Crash(dead, crashRound)
			crashJ, crashFresh, replanJ := 0.0, 0.0, 0.0
			crashEng := eng
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := crashEng.RunLossy(r, readings, cinj, chaosRetries)
				if err != nil {
					return nil, err
				}
				crashJ += res.EnergyJ
				crashFresh += freshFraction(res)
				if r != crashRound {
					continue
				}
				g2, err := failure.RemoveNode(net, dead)
				if err != nil {
					return nil, err
				}
				pruned, _, err := failure.PruneSpecs(specs, dead)
				if err != nil {
					return nil, err
				}
				newInst, err := plan.NewInstance(g2, routing.NewReversePath(g2), pruned)
				if err != nil {
					return nil, err
				}
				healed, _, err := plan.Reoptimize(p, newInst)
				if err != nil {
					return nil, err
				}
				oldTab, err := p.BuildTables()
				if err != nil {
					return nil, err
				}
				newTab, err := healed.BuildTables()
				if err != nil {
					return nil, err
				}
				base := graphBase(dead)
				diff, err := wire.CostUpdate(inst, newInst, oldTab, newTab, cfg.Radio, base)
				if err != nil {
					return nil, err
				}
				crashJ += diff.EnergyJ
				replanJ = diff.EnergyJ
				crashEng, err = sim.NewEngine(healed, cfg.Radio, sim.Options{MergeMessages: true})
				if err != nil {
					return nil, err
				}
			}

			t := float64(cfg.Timesteps)
			return []float64{
				radio.Millijoules(nofailJ) / t,
				100 * nofailFresh / t,
				radio.Millijoules(crashJ) / t,
				100 * crashFresh / t,
				radio.Millijoules(replanJ),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(lossPct), ys...)
	}
	return tbl, nil
}

// graphBase picks a dissemination base station that is not the dead node.
func graphBase(dead graph.NodeID) graph.NodeID {
	if dead == 0 {
		return 1
	}
	return 0
}

// freshFraction is the share of destinations served exactly this round.
func freshFraction(res *sim.LossyResult) float64 {
	if len(res.Reports) == 0 {
		return 0
	}
	fresh := 0
	for _, rep := range res.Reports {
		if rep.Fresh {
			fresh++
		}
	}
	return float64(fresh) / float64(len(res.Reports))
}

package experiments

import (
	"fmt"

	"m2m/internal/agg"
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

// laggedSchedule overlays an epoch view on a base fault schedule: the
// listed nodes still run plan epoch 1 while the network is at epoch 2,
// so every frame they touch is fenced (heard, priced, discarded) — the
// steady state of a severed side that missed a replan's table diffs.
type laggedSchedule struct {
	sim.Faults
	lagging map[graph.NodeID]bool
}

func (l laggedSchedule) PlanEpoch() uint32 { return 2 }

func (l laggedSchedule) NodeEpoch(n graph.NodeID) uint32 {
	if l.lagging[n] {
		return 1
	}
	return 2
}

// churnSide grows a connected side of about a third of the network that
// excludes the base station (node 0).
func churnSide(net *graph.Undirected) ([]graph.NodeID, error) {
	size := net.Len() / 3
	for s := 1; s < net.Len(); s++ {
		side, err := chaos.GrowSide(net, graph.NodeID(s), size)
		if err != nil {
			continue
		}
		ok := true
		for _, n := range side {
			if n == 0 {
				ok = false
				break
			}
		}
		if ok {
			return side, nil
		}
	}
	return nil, fmt.Errorf("experiments: no connected side of %d nodes excludes the base", size)
}

// Churn prices the churn-tolerant runtime's three regimes on the GDI
// network, across loss rates: quiet rounds (loss only), rounds under a
// partition severing a third of the network (destinations the cut robs of
// sources go stale or starve, but nobody is condemned), rounds where the severed
// side lags one plan epoch behind (its frames are epoch-fenced: receivers
// pay RX for copies they discard), and the one-time cost of hop-by-hop
// table-diff dissemination that heals the lag once the cut closes — the
// lossy channel retries each hop, so heal cost grows with loss.
func Churn(cfg Config) (*tablefmt.Table, error) {
	_, net, err := gdi()
	if err != nil {
		return nil, err
	}
	tbl := tablefmt.New(
		"Churn — partition outage, epoch-fence overhead, and heal cost vs loss rate",
		"loss_pct", "quiet_mJ", "cut_mJ", "cut_unfresh_pct", "fence_mJ", "fence_drop", "heal_diff_mJ")
	side, err := churnSide(net)
	if err != nil {
		return nil, err
	}
	inSide := make(map[graph.NodeID]bool, len(side))
	for _, n := range side {
		inSide[n] = true
	}
	for _, lossPct := range []int{0, 5, 10} {
		ys, err := averagedRow(cfg, 6, func(seed int64) ([]float64, error) {
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

			// Quiet rounds: the channel loses frames but the topology holds.
			quiet := chaos.New(seed).WithUniformLoss(loss)
			quietJ := 0.0
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := eng.RunLossy(r, readings, quiet, chaosRetries)
				if err != nil {
					return nil, err
				}
				quietJ += res.EnergyJ
			}

			// Partition rounds: the side is cut off for the whole window.
			cut := chaos.New(seed).WithUniformLoss(loss).AddPartition(side, 0, cfg.Timesteps)
			cutJ, cutUnfresh := 0.0, 0.0
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := eng.RunLossy(r, readings, cut, chaosRetries)
				if err != nil {
					return nil, err
				}
				cutJ += res.EnergyJ
				unfresh := 0
				for _, rep := range res.Reports {
					if !rep.Fresh {
						unfresh++
					}
				}
				cutUnfresh += float64(unfresh) / float64(len(res.Reports))
			}

			// Epoch-fence rounds: the cut has healed but the side missed a
			// replan — its frames are heard and discarded until the table
			// diffs arrive.
			fence := laggedSchedule{Faults: chaos.New(seed).WithUniformLoss(loss), lagging: inSide}
			fenceJ, fenceDrop := 0.0, 0.0
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := eng.RunLossy(r, readings, fence, chaosRetries)
				if err != nil {
					return nil, err
				}
				fenceJ += res.EnergyJ
				fenceDrop += float64(res.EpochDropped)
			}

			// Heal: a crash inside the side during the cut forced a replan;
			// price pushing the resulting table diffs to the changed nodes
			// hop by hop over the lossy channel once the cut closes.
			healJ, err := healDiffCost(cfg, net, specs, inst, p, side, seed, loss)
			if err != nil {
				return nil, err
			}

			t := float64(cfg.Timesteps)
			return []float64{
				radio.Millijoules(quietJ) / t,
				radio.Millijoules(cutJ) / t,
				100 * cutUnfresh / t,
				radio.Millijoules(fenceJ) / t,
				fenceDrop / t,
				radio.Millijoules(healJ),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(lossPct), ys...)
	}
	return tbl, nil
}

// healDiffCost crashes the first workable source inside the side, repairs
// the plan incrementally, and prices disseminating the table diffs to
// every changed node over the lossy (healed) channel.
func healDiffCost(cfg Config, net *graph.Undirected, specs []agg.Spec, inst *plan.Instance, p *plan.Plan, side []graph.NodeID, seed int64, loss float64) (float64, error) {
	inSide := make(map[graph.NodeID]bool, len(side))
	for _, n := range side {
		inSide[n] = true
	}
	for _, sp := range specs {
		for _, src := range sp.Func.Sources() {
			if !inSide[src] || src == sp.Dest {
				continue
			}
			g2, err := failure.RemoveNode(net, src)
			if err != nil || len(g2.Components()) > 2 {
				continue
			}
			pruned, _, err := failure.PruneSpecs(specs, src)
			if err != nil {
				continue
			}
			newInst, err := plan.NewInstance(g2, routing.NewReversePath(g2), pruned)
			if err != nil {
				continue
			}
			healed, _, err := plan.Reoptimize(p, newInst)
			if err != nil {
				continue
			}
			oldTab, err := p.BuildTables()
			if err != nil {
				return 0, err
			}
			newTab, err := healed.BuildTables()
			if err != nil {
				return 0, err
			}
			changed, err := wire.ChangedNodes(inst, newInst, oldTab, newTab)
			if err != nil {
				return 0, err
			}
			targets := changed[:0:0]
			for _, n := range changed {
				if n != src {
					targets = append(targets, n)
				}
			}
			res, err := wire.DisseminateTables(newInst, newTab, cfg.Radio, 0, targets, 2,
				chaos.New(seed).WithUniformLoss(loss), 0, chaosRetries)
			if err != nil {
				return 0, err
			}
			return res.EnergyJ, nil
		}
	}
	return 0, fmt.Errorf("experiments: no survivable source inside the severed side")
}

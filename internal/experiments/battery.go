package experiments

import (
	"fmt"
	"math"

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

// Battery experiment knobs: the hot relay's battery is sized to die after
// about batteryHotRounds static rounds, evacuation triggers when its
// forecast time-to-death drops to batteryEvacHorizon rounds, and a run
// with no death by batteryMaxRounds is reported censored at that cap
// (evacuation can cut the relay's burn so far it outlives any reasonable
// horizon).
const (
	batteryHotRounds   = 30
	batteryEvacHorizon = 12.0
	batteryMaxRounds   = 240
	batteryEvacPenalty = 8.0
)

// Battery compares network lifetime — the round of the first battery
// death, the paper's first-node-death metric under an actual per-round
// ledger — with and without proactive evacuation. Both runs give the
// plan's hottest relay a battery sized to die mid-run while everyone else
// has ample charge, and execute lossy rounds that debit real per-attempt
// spend. The static run keeps the original plan until the relay browns
// out; the evacuation run watches the relay's observed burn rate and,
// when its forecast time-to-death crosses the horizon, replans once on an
// energy-weighted topology (edges incident to the relay penalized, its
// cover weights scaled by residual energy) and pays the table-diff
// dissemination out of the same ledger. The lifetime gain is what
// load-shifting buys; the replan column is its one-time cost. An
// evacuated relay whose residual outlasts the round cap is reported as
// dying at the cap, so evac_death_rd is a lower bound.
func Battery(cfg Config) (*tablefmt.Table, error) {
	_, net, err := gdi()
	if err != nil {
		return nil, err
	}
	tbl := tablefmt.New(
		"Battery — first-death round, static plan vs proactive evacuation",
		"loss_pct", "static_death_rd", "evac_death_rd", "gain_pct", "evac_round", "replan_mJ")
	for _, lossPct := range []int{0, 5, 10} {
		ys, err := averagedRow(cfg, 5, func(seed int64) ([]float64, error) {
			loss := float64(lossPct) / 100
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
			staticDeath, _, _, err := batteryRun(cfg, net, specs, inst, p, seed, loss, false)
			if err != nil {
				return nil, err
			}
			evacDeath, evacRound, replanJ, err := batteryRun(cfg, net, specs, inst, p, seed, loss, true)
			if err != nil {
				return nil, err
			}
			gain := 100 * float64(evacDeath-staticDeath) / float64(staticDeath)
			return []float64{
				float64(staticDeath),
				float64(evacDeath),
				gain,
				float64(evacRound),
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

// hottestNode returns the node with the largest static per-round spend
// (ties to the lowest ID) and that spend.
func hottestNode(per map[graph.NodeID]float64) (graph.NodeID, float64) {
	var hot graph.NodeID
	worst := 0.0
	for n, j := range per {
		if j > worst || (j == worst && j > 0 && n < hot) {
			hot, worst = n, j
		}
	}
	return hot, worst
}

// batteryRun executes lossy rounds against a fresh ledger until the first
// battery death and returns its round, plus (for evacuation runs) the
// round the evacuation replan happened and its dissemination energy.
// ResilientSession drives the same mechanism through beacons and epoch
// fencing; this harness reproduces it from the planner primitives so the
// experiment does not depend on the facade package.
func batteryRun(cfg Config, net *graph.Undirected, specs []agg.Spec, inst *plan.Instance, p *plan.Plan, seed int64, loss float64, evacuate bool) (death, evacRound int, replanJ float64, err error) {
	bat, err := sim.NewBattery(net.Len(), sim.DefaultBatteryCapacityJ)
	if err != nil {
		return 0, 0, 0, err
	}
	eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true, Battery: bat})
	if err != nil {
		return 0, 0, 0, err
	}
	hot, hotJ := hottestNode(eng.PerNodeEnergy())
	if hotJ <= 0 {
		return 0, 0, 0, fmt.Errorf("experiments: battery workload moves no traffic")
	}
	if err := bat.SetCapacity(hot, hotJ*batteryHotRounds); err != nil {
		return 0, 0, 0, err
	}
	inj := chaos.New(seed).WithUniformLoss(loss)
	readings := constantReadings(net.Len())
	curInst, curPlan := inst, p
	evacRound = -1
	prevSpent := 0.0
	for r := 0; r < batteryMaxRounds; r++ {
		if _, err := eng.RunLossy(r, readings, inj, chaosRetries); err != nil {
			return 0, 0, 0, err
		}
		if d := bat.FirstDeathRound(); d >= 0 {
			return d, evacRound, replanJ, nil
		}
		burn := bat.SpentJ(hot) - prevSpent
		prevSpent = bat.SpentJ(hot)
		if !evacuate || evacRound >= 0 || burn <= 0 || bat.Residual(hot)/burn > batteryEvacHorizon {
			continue
		}
		// The relay is forecast to die within the horizon: replan on the
		// energy-weighted topology and disseminate the diff, exactly as
		// ResilientSession.evacuate does.
		wg, err := failure.EvacuationGraph(net, map[graph.NodeID]bool{hot: true}, batteryEvacPenalty)
		if err != nil {
			return 0, 0, 0, err
		}
		newInst, err := plan.NewInstance(wg, routing.NewWeightedReversePath(wg), specs)
		if err != nil {
			return 0, 0, 0, err
		}
		frac := bat.Residual(hot) / bat.CapacityJ(hot)
		prices := map[graph.NodeID]int64{hot: 1 + int64(math.Round((1-frac)*4))}
		newPlan, _, err := plan.ReoptimizeWithPrices(curPlan, newInst, prices)
		if err != nil {
			return 0, 0, 0, err
		}
		oldTab, err := curPlan.BuildTables()
		if err != nil {
			return 0, 0, 0, err
		}
		newTab, err := newPlan.BuildTables()
		if err != nil {
			return 0, 0, 0, err
		}
		changed, err := wire.ChangedNodes(curInst, newInst, oldTab, newTab)
		if err != nil {
			return 0, 0, 0, err
		}
		dres, err := wire.DisseminateTables(newInst, newTab, cfg.Radio, graphBase(hot), changed, 2, inj, r, chaosRetries)
		if err != nil {
			return 0, 0, 0, err
		}
		for n, j := range dres.PerNodeJ {
			bat.Spend(r, n, j)
		}
		replanJ = dres.EnergyJ
		eng, err = sim.NewEngine(newPlan, cfg.Radio, sim.Options{MergeMessages: true, Battery: bat})
		if err != nil {
			return 0, 0, 0, err
		}
		curInst, curPlan = newInst, newPlan
		evacRound = r
		if d := bat.FirstDeathRound(); d >= 0 {
			// The dissemination itself finished the relay off.
			return d, evacRound, replanJ, nil
		}
	}
	if !evacuate {
		return 0, 0, 0, fmt.Errorf("experiments: no battery death within %d static rounds (seed %d)", batteryMaxRounds, seed)
	}
	// Evacuation stretched the relay past the cap: censor at the cap.
	return batteryMaxRounds, evacRound, replanJ, nil
}

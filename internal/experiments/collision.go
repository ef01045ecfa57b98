package experiments

import (
	"m2m/internal/chaos"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
	"m2m/internal/workload"
)

// collisionCapture is the capture probability of the contention channel
// used throughout the collision harness: a weak capture effect, so
// contention hurts but is not a total write-off for the unscheduled arm.
const collisionCapture = 0.1

// collisionRetries is the stop-and-wait budget all four arms share: deep
// enough that the contending arms get a real chance to deliver, which is
// exactly what makes their wasted energy visible (the TDMA arms never
// touch it — a validated frame delivers on the first attempt).
const collisionRetries = 7

// Collision measures the contention-aware radio stack: delivered coverage
// (fresh destination-rounds) and energy per round versus offered load,
// across four transmission arms — unscheduled ALOHA-style retries, seeded
// random backoff, TDMA off the plan's wait-for DAG, and TDMA over a
// minimum-degree spanning tree that bounds receiver fan-in (at a
// path-stretch cost the energy and slot columns price honestly). Offered
// load is sources per destination: more sources means more planned
// messages contending for the same receivers.
func Collision(cfg Config) (*tablefmt.Table, error) {
	_, net, err := gdi()
	if err != nil {
		return nil, err
	}
	tbl := tablefmt.New(
		"Contention — coverage and energy vs offered load, by transmission discipline",
		"srcs_per_dest",
		"unsched_cov_pct", "unsched_mJ", "unsched_coll",
		"backoff_cov_pct", "backoff_mJ",
		"tdma_cov_pct", "tdma_mJ", "tdma_slots",
		"mindeg_cov_pct", "mindeg_mJ", "mindeg_slots", "mindeg_maxfan")
	for _, load := range []int{2, 4, 6, 8} {
		ys, err := averagedRow(cfg, 12, func(seed int64) ([]float64, error) {
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.2,
				SourcesPerDest: load,
				Dispersion:     evalDispersion,
				MaxHops:        evalMaxHops,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			readings := constantReadings(net.Len())
			inj := chaos.New(seed).WithCollisions(collisionCapture)

			arm := func(router routing.Router, mode sim.TxMode) (cov, mJ, coll, slots, fan float64, err error) {
				inst, err := plan.NewInstance(net, router, specs)
				if err != nil {
					return 0, 0, 0, 0, 0, err
				}
				p, err := plan.Optimize(inst)
				if err != nil {
					return 0, 0, 0, 0, 0, err
				}
				eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
				if err != nil {
					return 0, 0, 0, 0, 0, err
				}
				if mode == sim.TxTDMA {
					if err := eng.EnableTDMA(); err != nil {
						return 0, 0, 0, 0, 0, err
					}
					frame := eng.Frame()
					for _, s := range frame {
						if float64(s+1) > slots {
							slots = float64(s + 1)
						}
					}
				} else if err := eng.SetTxMode(mode); err != nil {
					return 0, 0, 0, 0, 0, err
				}
				if md, ok := router.(*routing.MinDegreeTree); ok {
					fan = float64(md.MaxDegree())
				}
				for r := 0; r < cfg.Timesteps; r++ {
					res, err := eng.RunLossy(r, readings, inj, collisionRetries)
					if err != nil {
						return 0, 0, 0, 0, 0, err
					}
					cov += freshFraction(res)
					mJ += radio.Millijoules(res.EnergyJ)
					coll += float64(res.Collisions)
				}
				t := float64(cfg.Timesteps)
				return 100 * cov / t, mJ / t, coll / t, slots, fan, nil
			}

			uCov, uJ, uColl, _, _, err := arm(routing.NewReversePath(net), sim.TxUnscheduled)
			if err != nil {
				return nil, err
			}
			bCov, bJ, _, _, _, err := arm(routing.NewReversePath(net), sim.TxBackoff)
			if err != nil {
				return nil, err
			}
			tCov, tJ, _, tSlots, _, err := arm(routing.NewReversePath(net), sim.TxTDMA)
			if err != nil {
				return nil, err
			}
			mdt, err := routing.NewMinDegreeTree(net)
			if err != nil {
				return nil, err
			}
			mCov, mJ, _, mSlots, mFan, err := arm(mdt, sim.TxTDMA)
			if err != nil {
				return nil, err
			}
			return []float64{
				uCov, uJ, uColl,
				bCov, bJ,
				tCov, tJ, tSlots,
				mCov, mJ, mSlots, mFan,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(load), ys...)
	}
	return tbl, nil
}

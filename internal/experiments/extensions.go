package experiments

import (
	"m2m/internal/distopt"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/readings"
	"m2m/internal/routing"
	"m2m/internal/schedule"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
	"m2m/internal/topology"
	"m2m/internal/wire"
	"m2m/internal/workload"
)

// OutOfNetwork compares the paper's in-network optimal plan against the
// introduction's strawman — every source reports to a base station, which
// computes and returns all control signals. Rows scale the network
// (sources stay 1–4 hops from their destinations, so in-network traffic
// stays local while base round trips lengthen); columns report total
// round energy and the hottest node's energy (the bottleneck argument).
func OutOfNetwork(cfg Config) (*tablefmt.Table, error) {
	tbl := tablefmt.New(
		"Out-of-network control vs in-network optimal (25% dests × 20 local sources, base = node 0)",
		"nodes", "innet_mJ", "outnet_mJ", "innet_max_node_mJ", "outnet_max_node_mJ")
	for n := 50; n <= 250; n += 100 {
		n := n
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			_, net := topology.Scaled(n, seed)
			specs, err := workload.Generate(net, workload.Config{
				DestFraction:   0.25,
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
			p, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
			if err != nil {
				return nil, err
			}
			in, err := eng.Run(constantReadings(net.Len()))
			if err != nil {
				return nil, err
			}
			out, err := sim.OutOfNetwork(net, specs, cfg.Radio, 0, constantReadings(net.Len()))
			if err != nil {
				return nil, err
			}
			maxOf := func(m map[graph.NodeID]float64) float64 {
				max := 0.0
				for _, v := range m {
					if v > max {
						max = v
					}
				}
				return max
			}
			return []float64{
				radio.Millijoules(in.EnergyJ),
				radio.Millijoules(out.EnergyJ),
				radio.Millijoules(maxOf(in.PerNodeJ)),
				radio.Millijoules(maxOf(out.PerNodeJ)),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(n), ys...)
	}
	return tbl, nil
}

// BroadcastAblation prices the footnote-1 optimization: each node sends
// one local broadcast with selective listening instead of per-edge
// unicasts. Multicast-heavy plans benefit most (raw values duplicated
// across out-edges collapse into one transmission).
func BroadcastAblation(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Broadcast with selective listening vs per-edge unicast",
		"pct_dests", "optimal_uni_mJ", "optimal_bc_mJ", "multicast_uni_mJ", "multicast_bc_mJ")
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
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
			mc := plan.Multicast(inst)
			run := func(p *plan.Plan, broadcast bool) (float64, error) {
				eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true, Broadcast: broadcast})
				if err != nil {
					return 0, err
				}
				res, err := eng.Run(constantReadings(net.Len()))
				if err != nil {
					return 0, err
				}
				return radio.Millijoules(res.EnergyJ), nil
			}
			ou, err := run(opt, false)
			if err != nil {
				return nil, err
			}
			ob, err := run(opt, true)
			if err != nil {
				return nil, err
			}
			mu, err := run(mc, false)
			if err != nil {
				return nil, err
			}
			mb, err := run(mc, true)
			if err != nil {
				return nil, err
			}
			return []float64{ou, ob, mu, mb}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Scheduling builds collision-free TDMA schedules for the optimal plan's
// messages and reports frame length and idle-listening savings — the
// further optimization Section 3 mentions.
func Scheduling(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"TDMA scheduling of the optimal plan's messages",
		"pct_dests", "messages", "frame_slots", "latency_ms", "listening_saved_pct", "idle_always_mJ", "idle_sched_mJ")
	// One slot carries the largest plausible message (header + ~36 B).
	slotBytes := cfg.Radio.HeaderBytes + 36
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 6, func(seed int64) ([]float64, error) {
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
			eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
			if err != nil {
				return nil, err
			}
			infos, err := eng.MessageGraph()
			if err != nil {
				return nil, err
			}
			msgs := make([]schedule.Message, len(infos))
			for i, mi := range infos {
				msgs[i] = schedule.Message{From: mi.From, To: mi.To, Deps: mi.Deps}
			}
			s, err := schedule.Build(net, msgs)
			if err != nil {
				return nil, err
			}
			if err := s.Validate(net, msgs); err != nil {
				return nil, err
			}
			ls := s.Listening(msgs)
			perSlot := cfg.Radio.IdleListenJoules(slotBytes)
			return []float64{
				float64(len(msgs)),
				float64(s.Len()),
				float64(s.Len()) * schedule.SlotSeconds(slotBytes) * 1e3,
				100 * ls.SavedFraction(),
				radio.Millijoules(float64(ls.AlwaysOnSlots) * perSlot),
				radio.Millijoules(float64(ls.AwakeSlots) * perSlot),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Lifetime compares the algorithms on the metric that actually bounds a
// deployment: rounds until the first node exhausts its battery
// (first-node-death). Optimal's advantage typically exceeds its
// total-energy advantage because balancing multicast against aggregation
// also flattens hot spots.
func Lifetime(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Network lifetime (rounds to first node death, 10 kJ battery)",
		"pct_dests", "optimal", "multicast", "aggregation", "outofnet")
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, false)
			if err != nil {
				return nil, err
			}
			life := func(p *plan.Plan) (float64, error) {
				eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true})
				if err != nil {
					return 0, err
				}
				res, err := eng.Run(constantReadings(net.Len()))
				if err != nil {
					return 0, err
				}
				rounds, _, err := sim.LifetimeRounds(res.PerNodeJ, sim.DefaultBatteryJoules)
				if err != nil {
					return 0, err
				}
				return float64(rounds), nil
			}
			opt, err := plan.Optimize(inst)
			if err != nil {
				return nil, err
			}
			lOpt, err := life(opt)
			if err != nil {
				return nil, err
			}
			lMc, err := life(plan.Multicast(inst))
			if err != nil {
				return nil, err
			}
			lAg, err := life(plan.AggregateASAP(inst))
			if err != nil {
				return nil, err
			}
			out, err := sim.OutOfNetwork(net, specs, cfg.Radio, 0, constantReadings(net.Len()))
			if err != nil {
				return nil, err
			}
			lOut, _, err := sim.LifetimeRounds(out.PerNodeJ, sim.DefaultBatteryJoules)
			if err != nil {
				return nil, err
			}
			return []float64{lOpt, lMc, lAg, float64(lOut)}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// Distributed measures the in-network optimization protocol (Section
// 2.3's divide-and-conquer claim): setup traffic to teach every node its
// local problems, versus disseminating a centrally computed plan, plus
// the per-node computational load.
func Distributed(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"In-network (distributed) optimization vs central plan dissemination",
		"pct_dests", "setup_B", "central_dissem_B", "nodes_solving", "max_problems_per_node")
	for pct := 20; pct <= 100; pct += 40 {
		ys, err := averagedRow(cfg, 4, func(seed int64) ([]float64, error) {
			specs, err := evalWorkload(net, float64(pct)/100, seed)
			if err != nil {
				return nil, err
			}
			inst, err := buildInstance(net, specs, true)
			if err != nil {
				return nil, err
			}
			res, err := distopt.Optimize(inst, cfg.Radio)
			if err != nil {
				return nil, err
			}
			tab, err := res.Plan.BuildTables()
			if err != nil {
				return nil, err
			}
			central, err := wire.CostTables(inst, tab, cfg.Radio, 0, nil)
			if err != nil {
				return nil, err
			}
			return []float64{
				float64(res.Setup.Bytes),
				float64(central.Bytes),
				float64(res.NodesSolving),
				float64(res.MaxEdgeProblems),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(pct), ys...)
	}
	return tbl, nil
}

// OverrideState compares the default override (value stays raw to its
// destinations once overridden) against Section 3's flexible alternative
// (pre-aggregation weights stored at every path node, so values re-fold
// downstream), across change probabilities. Improvements are relative to
// plain suppression; the last column is the flexible mode's extra state.
func OverrideState(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Override state ablation — aggressive policy, default vs flexible",
		"change_prob", "default_impr_pct", "flexible_impr_pct", "extra_state_entries")
	for pi := 1; pi <= 6; pi++ {
		p := float64(pi) * 0.05
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
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
			def, err := sim.NewSuppressor(pl, cfg.Radio, sim.PolicyAggressive)
			if err != nil {
				return nil, err
			}
			flex, err := sim.NewSuppressorFlexible(pl, cfg.Radio, sim.PolicyAggressive)
			if err != nil {
				return nil, err
			}
			gen := readings.NewPulse(net.Len(), seed*31, p, 1)
			prev := gen.Next()
			var eBase, eDef, eFlex float64
			for round := 0; round < cfg.Timesteps; round++ {
				cur := gen.Next()
				deltas := readings.Deltas(prev, cur, 0)
				prev = cur
				rb, err := base.Round(deltas)
				if err != nil {
					return nil, err
				}
				rd, err := def.Round(deltas)
				if err != nil {
					return nil, err
				}
				rf, err := flex.Round(deltas)
				if err != nil {
					return nil, err
				}
				eBase += rb.EnergyJ
				eDef += rd.EnergyJ
				eFlex += rf.EnergyJ
			}
			impr := func(e float64) float64 {
				if eBase == 0 {
					return 0
				}
				return 100 * (eBase - e) / eBase
			}
			return []float64{impr(eDef), impr(eFlex), float64(flex.ExtraStateEntries())}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(p, ys...)
	}
	return tbl, nil
}

// LinkLoss prices the optimal plan under distance-dependent packet loss
// with stop-and-wait retransmission: long links (the "gray zone" near the
// radio range limit) inflate every message crossing them. Rows scale the
// worst-case loss probability.
func LinkLoss(cfg Config) (*tablefmt.Table, error) {
	l, net := gdi()
	tbl := tablefmt.New(
		"Link loss — optimal plan energy under ARQ vs worst-case loss probability",
		"max_loss", "optimal_mJ", "inflation_pct", "lossy_links_pct")
	for _, maxLoss := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		maxLoss := maxLoss
		lossOf := func(e routing.Edge) float64 {
			d := l.Points[e.From].Dist(l.Points[e.To])
			return radio.LossForDistance(d, cfg.Radio.RangeMeters, maxLoss)
		}
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
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
			run := func(loss func(routing.Edge) float64) (float64, error) {
				eng, err := sim.NewEngine(p, cfg.Radio, sim.Options{MergeMessages: true, LinkLoss: loss})
				if err != nil {
					return 0, err
				}
				res, err := eng.Run(constantReadings(net.Len()))
				if err != nil {
					return 0, err
				}
				return radio.Millijoules(res.EnergyJ), nil
			}
			lossless, err := run(nil)
			if err != nil {
				return nil, err
			}
			lossy, err := run(lossOf)
			if err != nil {
				return nil, err
			}
			lossyLinks, total := 0, 0
			for _, e := range inst.EdgeList {
				total++
				if lossOf(e) > 0 {
					lossyLinks++
				}
			}
			return []float64{
				lossy,
				100 * (lossy - lossless) / lossless,
				100 * float64(lossyLinks) / float64(total),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(maxLoss, ys...)
	}
	return tbl, nil
}

// Adaptive measures the volatility-tracking override policy against the
// fixed policies across change probabilities — the paper's closing
// suggestion for continuous control. Improvements are relative to plain
// suppression, as in Figure 7.
func Adaptive(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Adaptive override policy vs fixed policies (improvement % over plain suppression)",
		"change_prob", "aggressive", "conservative", "adaptive")
	for pi := 1; pi <= 6; pi++ {
		p := float64(pi) * 0.05
		ys, err := averagedRow(cfg, 3, func(seed int64) ([]float64, error) {
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
			aggr, err := sim.NewSuppressor(pl, cfg.Radio, sim.PolicyAggressive)
			if err != nil {
				return nil, err
			}
			cons, err := sim.NewSuppressor(pl, cfg.Radio, sim.PolicyConservative)
			if err != nil {
				return nil, err
			}
			adap, err := sim.NewAdaptiveSuppressor(pl, cfg.Radio)
			if err != nil {
				return nil, err
			}
			gen := readings.NewPulse(net.Len(), seed*101, p, 1)
			prev := gen.Next()
			var eBase, eAggr, eCons, eAdap float64
			// Longer horizon than fig7 so the EWMA settles.
			for round := 0; round < cfg.Timesteps*3; round++ {
				cur := gen.Next()
				deltas := readings.Deltas(prev, cur, 0)
				prev = cur
				rb, err := base.Round(deltas)
				if err != nil {
					return nil, err
				}
				ra, err := aggr.Round(deltas)
				if err != nil {
					return nil, err
				}
				rc, err := cons.Round(deltas)
				if err != nil {
					return nil, err
				}
				rd, _, err := adap.Round(deltas)
				if err != nil {
					return nil, err
				}
				eBase += rb.EnergyJ
				eAggr += ra.EnergyJ
				eCons += rc.EnergyJ
				eAdap += rd.EnergyJ
			}
			impr := func(e float64) float64 {
				if eBase == 0 {
					return 0
				}
				return 100 * (eBase - e) / eBase
			}
			return []float64{impr(eAggr), impr(eCons), impr(eAdap)}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(p, ys...)
	}
	return tbl, nil
}

// disseminationColumns prices installing the new plan after an
// incremental change, full vs diff, using the wire encoding.
func disseminationColumns(oldInst, newInst *plan.Instance, oldPlan, newPlan *plan.Plan, model radio.Model) (fullBytes, diffBytes float64, err error) {
	oldTab, err := oldPlan.BuildTables()
	if err != nil {
		return 0, 0, err
	}
	newTab, err := newPlan.BuildTables()
	if err != nil {
		return 0, 0, err
	}
	full, err := wire.CostTables(newInst, newTab, model, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	diff, err := wire.CostUpdate(oldInst, newInst, oldTab, newTab, model, 0)
	if err != nil {
		return 0, 0, err
	}
	return float64(full.Bytes), float64(diff.Bytes), nil
}

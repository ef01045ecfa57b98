package experiments

import (
	"m2m/internal/chaos"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
)

// Async sweeps the event-driven executor across link-timing regimes:
// latency jitter plus duplication under a fixed loss rate, with and
// without a round deadline. Columns report per-round energy, the share of
// destination-rounds served fresh, the mean simulated round makespan, the
// duplicate deliveries absorbed by the dedup window, and the
// destination-rounds that closed at the deadline with a degraded
// aggregate. The fault-free first row doubles as the invariant anchor:
// its energy equals the synchronous engine's and every destination is
// fresh.
func Async(cfg Config) (*tablefmt.Table, error) {
	_, net, err := gdi()
	if err != nil {
		return nil, err
	}
	tbl := tablefmt.New(
		"Async — event-driven rounds vs link timing regime (10% loss unless noted)",
		"jitter_ms", "dup_pct", "deadline_ms", "mJ_per_round", "fresh_pct", "makespan_ms", "dups", "deadlined_pct")
	type regime struct {
		jitterMS float64
		dupPct   int
		deadline float64
		lossy    bool
	}
	regimes := []regime{
		{0, 0, 0, false},     // fault-free: must match the synchronous engine
		{10, 0, 0, true},     // jitter only
		{10, 20, 0, true},    // jitter + duplication
		{40, 20, 0, true},    // heavy jitter + duplication
		{40, 20, 400, true},  // same, deadline-bounded
		{40, 20, 1200, true}, // looser deadline
	}
	for _, rg := range regimes {
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
			runner, err := sim.NewAsyncRunner(eng, sim.AsyncConfig{
				MaxRetries: chaosRetries,
				DeadlineMS: rg.deadline,
			})
			if err != nil {
				return nil, err
			}
			readings := constantReadings(net.Len())
			inj := chaos.New(seed)
			if rg.lossy {
				inj.WithUniformLoss(0.1)
			}
			if rg.jitterMS > 0 {
				inj.WithJitter(2, rg.jitterMS)
			}
			if rg.dupPct > 0 {
				inj.WithDuplication(float64(rg.dupPct) / 100)
			}
			energyJ, fresh, makespan, deadlined := 0.0, 0.0, 0.0, 0.0
			dups := 0
			nDests := 0
			for r := 0; r < cfg.Timesteps; r++ {
				res, err := runner.Run(r, readings, inj)
				if err != nil {
					return nil, err
				}
				energyJ += res.EnergyJ
				fresh += freshFraction(&res.LossyResult)
				makespan += res.MakespanMS
				dups += res.DupCopies
				deadlined += float64(res.DeadlineClosed)
				nDests = len(res.Reports)
			}
			t := float64(cfg.Timesteps)
			deadPct := 0.0
			if nDests > 0 {
				deadPct = 100 * deadlined / (t * float64(nDests))
			}
			return []float64{
				radio.Millijoules(energyJ) / t,
				100 * fresh / t,
				makespan / t,
				float64(dups) / t,
				deadPct,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(rg.jitterMS, append([]float64{float64(rg.dupPct), rg.deadline}, ys...)...)
	}
	return tbl, nil
}

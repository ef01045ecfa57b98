package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/sim"
	"m2m/internal/tablefmt"
)

// Byzantine experiment knobs: the estimator population, the honest
// reading band, and the misbehavior cycle liars draw their modes from.
const (
	byzSources = 20
	byzDomLo   = 0
	byzDomHi   = 100
)

// byzModes is the mixed-misbehavior cycle: liar j gets entry j mod len.
var byzModes = []struct {
	mode  chaos.ByzMode
	param float64
}{
	{chaos.ByzStuck, 2000},
	{chaos.ByzAmplify, 100},
	{chaos.ByzSpray, 500},
	{chaos.ByzStuck, -400},
	{chaos.ByzAmplify, -30},
	{chaos.ByzOffset, 25},
}

// Byzantine measures what robust sketch aggregates buy under adversarial
// injection: three estimators of the same physical field over the same
// sources — exact weighted average, trimmed mean, q-digest median — run
// against 0%, 10%, and 25% of the sources lying in mixed modes (stuck,
// amplified, drifting, sprayed). Each family's column pair is its mean
// absolute estimate error and its per-round bytes on air: the exact
// average is the cheapest and diverges with the first liar, while the
// constant-size sketches pay a fixed byte premium to keep the estimate
// within a few histogram buckets of the truth — the accuracy-vs-bytes
// trade recorded in BENCH_byzantine.json.
func Byzantine(cfg Config) (*tablefmt.Table, error) {
	_, net := gdi()
	tbl := tablefmt.New(
		"Byzantine — estimate error and bytes on air vs fraction of lying sources",
		"byz_pct", "wavg_err", "wavg_B", "tmean_err", "tmean_B", "qd_err", "qd_B")
	for _, byzPct := range []int{0, 10, 25} {
		ys, err := averagedRow(cfg, 6, func(seed int64) ([]float64, error) {
			return byzantineRun(cfg, net, seed, byzPct)
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(float64(byzPct), ys...)
	}
	return tbl, nil
}

// byzField gives every node an honest reading in a narrow [20, 22] band —
// commensurate sensors sampling one field, the regime robust aggregation
// assumes.
func byzField(n int) map[graph.NodeID]float64 {
	r := make(map[graph.NodeID]float64, n)
	for i := 0; i < n; i++ {
		r[graph.NodeID(i)] = 20 + float64(i%5)*0.5
	}
	return r
}

// byzantineRun executes cfg.Timesteps adversarial rounds for one seed and
// returns the interleaved (error, bytes-per-round) pairs for the exact
// average, trimmed mean, and q-digest estimators.
func byzantineRun(cfg Config, net *graph.Undirected, seed int64, byzPct int) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	// Destinations 0-2 collect; sources are drawn from the rest.
	perm := rng.Perm(net.Len() - 3)
	sources := make([]graph.NodeID, byzSources)
	weights := make(map[graph.NodeID]float64, byzSources)
	for i := range sources {
		sources[i] = graph.NodeID(perm[i] + 3)
		weights[sources[i]] = 1
	}
	nLiars := byzSources * byzPct / 100
	inj := chaos.New(seed)
	for j, src := range rng.Perm(byzSources)[:nLiars] {
		m := byzModes[j%len(byzModes)]
		inj = inj.WithByzantine(sources[src], m.mode, m.param, 0, chaos.Forever)
	}
	if err := inj.Validate(); err != nil {
		return nil, err
	}

	tm, err := agg.NewTrimmedMean(sources, 6, byzDomLo, byzDomHi, 0.25)
	if err != nil {
		return nil, err
	}
	qd, err := agg.NewQDigest(sources, 6, byzDomLo, byzDomHi, 0.5)
	if err != nil {
		return nil, err
	}
	specs := []agg.Spec{
		{Dest: 0, Func: agg.NewWeightedAverage(weights)},
		{Dest: 1, Func: tm},
		{Dest: 2, Func: qd},
	}
	readings := byzField(net.Len())
	out := make([]float64, 0, 6)
	for i, spec := range specs {
		inst, err := buildInstance(net, []agg.Spec{spec}, false)
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
		honest, err := eng.Run(readings)
		if err != nil {
			return nil, err
		}
		truth := honest.Values[spec.Dest]
		// The injector's only faults are the liars, so every lossy round
		// carries the honest round's traffic (its OnAirBytes) with the
		// liars' readings corrupted at the source.
		var errSum float64
		for r := 0; r < cfg.Timesteps; r++ {
			res, err := eng.RunLossy(r, readings, inj, 0)
			if err != nil {
				return nil, err
			}
			errSum += math.Abs(res.Values[spec.Dest] - truth)
		}
		if byzPct == 0 && errSum != 0 {
			return nil, fmt.Errorf("experiments: estimator %d drifted %g with zero liars", i, errSum)
		}
		out = append(out, errSum/float64(cfg.Timesteps), float64(honest.OnAirBytes))
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"m2m"
	"m2m/internal/agg"
	"m2m/internal/sim"
)

// fastQ is the quantile of round times plan-10k reports as an executor's
// cost (see runPlan10k).
const fastQ = 0.02

// concBatch is how many rounds one RunConcurrent call runs.
const concBatch = 10

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

// runPlan10k is the planner and compiled-executor workload: a 10k-node
// uniform network with n/50 destinations × 20 sources (the plan-scale
// shape). Each iteration plans it (specs → NewInstance → Optimize →
// sim.NewEngine), replans one workload delta (one destination's spec
// dropped: NewInstance + Reoptimize + compile), and runs fault-free
// rounds through RunInto and RunConcurrent after each of the two and after
// the output checks.
func runPlan10k(cfg config, r *report) error {
	// Each iteration runs 3 blocks of blockRounds rounds per executor.
	n, blockRounds := 10000, 400
	if cfg.small {
		n, blockRounds = 1000, 100
	}
	wcfg := m2m.WorkloadConfig{NumDests: n / 50, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: cfg.seed}
	tr := r.tr

	var setup, topoT, genT samples
	var net *m2m.Network
	var specs []m2m.Spec
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		sp := tr.begin("setup", -1)
		c := tr.begin("topology.build", sp)
		net = m2m.RandomNetwork(n, cfg.seed)
		topoT.addDur(tr.end(c))
		c = tr.begin("workload.generate", sp)
		var err error
		specs, err = net.GenerateWorkload(wcfg)
		genT.addDur(tr.end(c))
		tr.end(sp)
		setup.addDur(time.Since(t0))
		if err != nil {
			return fmt.Errorf("generating workload: %w", err)
		}
	}
	r.e2e("setup_s", setup.median(), "s", setup.len())
	r.layer("topology.build_ms", topoT.median()*1e3, "ms", topoT.len())
	r.layer("workload.generate_ms", genT.median()*1e3, "ms", genT.len())

	// Readings: a small pool of full-network reading maps and, per map,
	// every destination's out-of-network reference aggregate (agg.Eval).
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := make([]map[m2m.NodeID]float64, 4)
	want := make([]map[m2m.NodeID]float64, len(pool))
	for i := range pool {
		pool[i] = make(map[m2m.NodeID]float64, n)
		for v := 0; v < n; v++ {
			pool[i][m2m.NodeID(v)] = 100 * rng.Float64()
		}
		want[i] = make(map[m2m.NodeID]float64, len(specs))
		for _, sp := range specs {
			v, err := agg.Eval(sp.Func, pool[i])
			if err != nil {
				return err
			}
			want[i][sp.Dest] = v
		}
	}

	var (
		planT, replanT, stepT   samples
		roundsRun               float64
		concT                   samples
		iterUntraced, iterTrace samples
		energyJ                 float64
		fresh, destRounds       int
		layerTimes              = map[string]samples{}
		counts                  = map[string]samples{}
	)
	addLayer := func(name string, v float64) {
		s := layerTimes[name]
		s.add(v)
		layerTimes[name] = s
	}
	addCount := func(name string, v float64) {
		s := counts[name]
		s.add(v)
		counts[name] = s
	}
	batch := make([]map[m2m.NodeID]float64, concBatch)
	for i := range batch {
		batch[i] = pool[i%len(pool)]
	}
	// checkRound counts the destination values of one round that equal
	// agg.Eval over its readings (untimed).
	checkRound := func(res *sim.RoundResult, readings int) {
		for dst, w := range want[readings%len(pool)] {
			if closeEnough(res.Values[dst], w) {
				fresh++
			}
		}
		destRounds += len(want[readings%len(pool)])
	}
	// roundBlock runs n fault-free rounds on eng through RunInto one at a
	// time, then n through RunConcurrent in batches of concBatch over nproc
	// workers, and returns the seconds spent in each executor. A
	// collection first clears the planner's garbage, so no collector work
	// left over from planning is timed with the rounds.
	roundBlock := func(eng *sim.Engine, st *sim.RoundState, t *tracer, traced bool, n int) (intoSecs, concSecs float64, err error) {
		runtime.GC()
		rp := t.begin("rounds", -1)
		defer t.end(rp)
		for i := 0; i < n; i++ {
			c := t.begin("sim.round", rp)
			t1 := time.Now()
			res, err := eng.RunInto(pool[i%len(pool)], st)
			d := time.Since(t1)
			t.end(c)
			if err != nil {
				return 0, 0, fmt.Errorf("round: %w", err)
			}
			intoSecs += d.Seconds()
			if !traced {
				stepT.addDur(d)
			}
			energyJ = res.EnergyJ
			checkRound(res, i)
		}
		for done := 0; done < n; done += concBatch {
			c := t.begin("sim.concurrent_batch", rp)
			t1 := time.Now()
			results, err := eng.RunConcurrent(context.Background(), batch, runtime.NumCPU())
			d := time.Since(t1).Seconds()
			t.end(c)
			if err != nil {
				return 0, 0, fmt.Errorf("concurrent rounds: %w", err)
			}
			concSecs += d
			if !traced {
				concT.add(d / concBatch)
			}
			for i, res := range results {
				checkRound(res, i)
			}
		}
		r.attempted += 2 * n
		return intoSecs, concSecs, nil
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minIters := 3
	if cfg.trace {
		minIters = 4
	}
	start := time.Now()
	for it := 0; it < minIters || time.Since(start) < budget; it++ {
		traced := cfg.trace && it%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		runtime.GC()

		// Plan: specs → compiled engine.
		t0 := time.Now()
		sp := t.begin("plan", -1)
		c := t.begin("plan.instance", sp)
		a := allocsIf(traced)
		inst, err := net.NewInstance(specs, m2m.RouterReversePath)
		if traced {
			objs, mb := a.since()
			addCount("plan.instance_allocs", objs)
			addCount("plan.instance_mb", mb)
		}
		t.end(c)
		if err != nil {
			return fmt.Errorf("instance: %w", err)
		}
		c = t.begin("plan.optimize", sp)
		a = allocsIf(traced)
		p, err := m2m.Optimize(inst)
		if traced {
			objs, _ := a.since()
			addCount("plan.optimize_allocs", objs)
		}
		t.end(c)
		if err != nil {
			return fmt.Errorf("optimize: %w", err)
		}
		c = t.begin("sim.compile", sp)
		eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
		t.end(c)
		t.end(sp)
		planDur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}

		// The engine's rounds run in three blocks: after the plan, after
		// the replan and after the checks, so that round samples spread
		// over the whole run rather than one window per iteration.
		st := eng.NewRoundState()
		for i := 0; i < 10; i++ { // warm-up: pooled state, lazy tables
			if _, err := eng.RunInto(pool[i%len(pool)], st); err != nil {
				return err
			}
		}
		if traced {
			a = allocsIf(true)
			for i := 0; i < 100; i++ {
				_, _ = eng.RunInto(pool[i%len(pool)], st)
			}
			objs, _ := a.since()
			addCount("sim.round_allocs", objs/100)
		}
		var roundsDur time.Duration
		var intoSecs, concSecs float64
		block := func() error {
			t1 := time.Now()
			into, conc, err := roundBlock(eng, st, t, traced, blockRounds)
			roundsDur += time.Since(t1)
			intoSecs += into
			concSecs += conc
			return err
		}
		if err := block(); err != nil {
			return err
		}

		// Replan one workload delta: drop one destination's spec.
		drop := int(uint64(cfg.seed+int64(it)*7919) % uint64(len(specs)))
		delta := append(append([]m2m.Spec(nil), specs[:drop]...), specs[drop+1:]...)
		runtime.GC()
		t0 = time.Now()
		sp = t.begin("replan", -1)
		c = t.begin("plan.replan_instance", sp)
		inst2, err := net.NewInstance(delta, m2m.RouterReversePath)
		t.end(c)
		if err != nil {
			return fmt.Errorf("delta instance: %w", err)
		}
		c = t.begin("plan.reoptimize", sp)
		p2, ust, err := m2m.Reoptimize(p, inst2)
		t.end(c)
		if err != nil {
			return fmt.Errorf("reoptimize: %w", err)
		}
		c = t.begin("sim.compile", sp)
		eng2, err := sim.NewEngine(p2, net.Radio, sim.Options{MergeMessages: true})
		t.end(c)
		t.end(sp)
		replanDur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("delta compile: %w", err)
		}
		r.attempted += 2
		if err := block(); err != nil {
			return err
		}

		// Output checks (untimed).
		r.check(p.Validate() == nil, "iteration %d: optimal plan fails Validate", it)
		r.check(p2.Validate() == nil, "iteration %d: replanned plan fails Validate", it)
		if it == 0 {
			opt := p.TotalBodyBytes()
			mc, asap := m2m.Multicast(inst).TotalBodyBytes(), m2m.AggregateASAP(inst).TotalBodyBytes()
			r.check(opt <= mc && opt <= asap,
				"optimal plan body bytes %d exceed Multicast %d or AggregateASAP %d", opt, mc, asap)
		}
		scratch, err := m2m.Optimize(inst2)
		if err != nil {
			return fmt.Errorf("from-scratch optimize: %w", err)
		}
		same, err := samePlan(p2, scratch)
		if err != nil {
			return err
		}
		r.check(same, "iteration %d: incremental replan differs from a from-scratch Optimize (Corollary 1)", it)
		res2, err := eng2.Run(pool[0])
		if err != nil {
			return fmt.Errorf("replanned round: %w", err)
		}
		for _, sp := range delta {
			r.check(closeEnough(res2.Values[sp.Dest], want[0][sp.Dest]),
				"iteration %d: replanned engine value of %d differs from agg.Eval", it, sp.Dest)
		}
		if err := block(); err != nil {
			return err
		}

		rounds := float64(3 * blockRounds)
		iterDur := planDur + replanDur + roundsDur
		if traced {
			iterTrace.addDur(iterDur)
			addLayer("sim.round_us", intoSecs/rounds*1e6)
			addLayer("sim.concurrent_round_us", concSecs/rounds*1e6)
			addCount("plan.pairs", float64(len(inst.Paths)))
			addCount("plan.edges", float64(len(inst.EdgeList)))
			addCount("plan.edges_solved", float64(ust.EdgesSolved))
			addCount("plan.edges_reused", float64(ust.EdgesReused))
			addCount("plan.body_bytes", float64(p.TotalBodyBytes()))
		} else {
			iterUntraced.addDur(iterDur)
			planT.addDur(planDur)
			replanT.addDur(replanDur)
			roundsRun += 2 * rounds
		}
	}
	r.check(fresh == destRounds, "%d of %d round values differ from agg.Eval", destRounds-fresh, destRounds)

	r.e2e("plan_s", planT.median(), "s", planT.len())
	r.e2e("replan_s", replanT.median(), "s", replanT.len())
	// Every round of one executor does the same work, so the spread of
	// their times is host noise. On a shared host that noise is other
	// tenants evicting the round's working set from the shared cache: it
	// only slows rounds, comes in bursts of seconds, and moved the median
	// round time by up to 2x between runs of the same seed. The executor's
	// cost is therefore a fast quantile (fastQ) of its round times over
	// the whole run; medians go to the report line. Equal round counts run
	// on each executor, so the combined rate is the harmonic mean of the
	// two executors' rates.
	into, conc := stepT.quantile(fastQ), concT.quantile(fastQ)
	rate := 2 / (into + conc)
	r.e2e("rounds_per_s", rate, "rounds/s", stepT.len()+concT.len())
	r.e2e("step_ms", into*1e3, "ms", stepT.len())
	r.alias("round_p50_ms", stepT.median()*1e3, "ms", stepT.len())
	r.alias("concurrent_round_p50_ms", concT.median()*1e3, "ms", concT.len())
	r.alias("step_p90_ms", stepT.quantile(0.90)*1e3, "ms", stepT.len())
	r.alias("step_p99_ms", stepT.p99()*1e3, "ms", stepT.len())
	r.e2e("sim_mJ_per_round", energyJ*1e3, "mJ", 0)
	r.e2e("fresh_frac", float64(fresh)/float64(destRounds), "ratio", 0)
	r.alias("plan_s", planT.median(), "s", planT.len())
	r.alias("replan_s", replanT.median(), "s", replanT.len())
	r.alias("rounds_per_s", rate, "rounds/s", int(roundsRun))
	r.alias("sim_mJ_per_round", energyJ*1e3, "mJ", 0)

	if cfg.trace {
		durs := tr.durations()
		for _, name := range []string{"plan.instance", "plan.optimize", "sim.compile", "plan.replan_instance", "plan.reoptimize"} {
			d := durs[name]
			r.layer(name+"_ms", d.median()*1e3, "ms", d.len())
		}
		for name, s := range layerTimes {
			r.layer(name, s.median(), "us", s.len())
		}
		for name, s := range counts {
			unit := "count"
			switch name {
			case "plan.instance_mb":
				unit = "MB"
			case "plan.body_bytes":
				unit = "bytes"
			}
			r.layer(name, s.median(), unit, s.len())
		}
		solved, reused := counts["plan.edges_solved"].median(), counts["plan.edges_reused"].median()
		r.layer("plan.reuse_frac", reused/(solved+reused), "ratio", 0)
		r.layer("trace.overhead_frac", iterTrace.median()/iterUntraced.median()-1, "ratio", 0)
		stageAccounting(r, tr, "plan", "replan")
	}
	return nil
}

// stageAccounting checks that each traced span's stage children add up to
// the whole within the benchmark's tolerance (1% + 1 ms).
func stageAccounting(r *report, tr *tracer, names ...string) {
	kids := tr.childSums()
	for _, name := range names {
		for _, s := range tr.spansNamed(name) {
			whole, parts := s.dur(), kids[s.ID]
			gap := whole - parts
			if gap < 0 {
				gap = -gap
			}
			r.check(gap <= whole/100+time.Millisecond,
				"stage spans of %s sum to %v, the whole took %v", name, parts, whole)
		}
	}
}

// samePlan reports whether two plans export byte-identically.
func samePlan(a, b *m2m.Plan) (bool, error) {
	ja, err := json.Marshal(a.Export())
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b.Export())
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// allocMark is a heap-allocation counter reading.
type allocMark struct {
	on            bool
	mallocs, byts uint64
}

// allocsIf reads the allocation counters when on (a stop-the-world read,
// so only traced code pays for it).
func allocsIf(on bool) allocMark {
	if !on {
		return allocMark{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{on: true, mallocs: ms.Mallocs, byts: ms.TotalAlloc}
}

// since returns the objects and MB allocated since the mark.
func (a allocMark) since() (objs, mb float64) {
	if !a.on {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc-a.byts) / (1 << 20)
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"m2m"
	"m2m/internal/invariant"
)

// sessionBatch is how many scenarios are built before they are stepped.
const sessionBatch = 100

// runResilientMix is the self-healing session workload: a fixed count of
// GenerateScenario scenarios drawn from the workload seed (loss,
// partitions, crash/revive, battery, async, collisions/TDMA and Byzantine
// families), each stepped through ScenarioRun.Step for its rounds. An
// untimed invariant.CheckWith pass checks every scenario first; a session
// whose Step legitimately errors (as invariant judges it) is stepped in the
// timed passes only up to that round, and the error is counted.
func runResilientMix(cfg config, r *report) error {
	count := 1000
	if cfg.small {
		count = 20
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = cfg.seed*100000 + int64(i) + 1
	}

	// Untimed invariant pass: every checker over every scenario.
	checkStart := time.Now()
	limit := make([]int, count) // rounds each scenario steps cleanly
	legit := 0
	families := map[string]int{}
	for i, s := range seeds {
		sc, err := m2m.GenerateScenario(s)
		if err != nil {
			return fmt.Errorf("scenario %d: %w", s, err)
		}
		families[sc.Family]++
		rep := invariant.CheckWith(sc, invariant.Options{})
		r.check(!rep.Failed(), "scenario %d fails invariants: %v", s, rep)
		limit[i] = rep.Rounds
		if rep.Rounds < sc.Rounds && !rep.Failed() {
			legit++
		}
	}
	r.note("scenario families: %v", families)
	r.note("invariant pass took %.2fs", time.Since(checkStart).Seconds())

	// Every pass builds the same sessions and steps them through the same
	// rounds, so each session build and each Step does the same work in
	// every pass. Host noise (other tenants of a shared host) only slows an
	// operation, in bursts of seconds that moved per-pass medians by up to
	// 1.5x between runs of one seed; the timed metrics therefore take each
	// operation's best time over the untraced passes. first[i] indexes
	// scenario i's first round in bestStep.
	first := make([]int, count+1)
	for i, n := range limit {
		first[i+1] = first[i] + n
	}
	bestBuild, bestStep := newBestTimes(count), newBestTimes(first[count])
	replanStep := make([]bool, first[count])

	tr := r.tr
	var (
		setup, genT, buildT      samples
		stepT, quietT, replanT   samples
		roundsRun                float64
		passUntraced, passTraced samples
		stepAllocs               samples
		tot                      mixTotals
	)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minPasses := 3
	if cfg.trace {
		minPasses = 4
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		traced := cfg.trace && pass%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		runtime.GC()

		// Scenarios are set up (generated and their sessions built) and
		// then stepped through their rounds a batch at a time, so a
		// batch's sessions share the heap as a server's would; setup_s
		// sums the pass's set-up work.
		var pt mixTotals
		var gen, build, stepping time.Duration
		var stepObjs uint64
		pp := t.begin("pass", -1)
		for lo := 0; lo < len(seeds); lo += sessionBatch {
			hi := min(lo+sessionBatch, len(seeds))
			runs := make([]*m2m.ScenarioRun, 0, hi-lo)
			for _, s := range seeds[lo:hi] {
				t0 := time.Now()
				c := t.begin("chaos.generate", pp)
				sc, err := m2m.GenerateScenario(s)
				t.end(c)
				t1 := time.Now()
				gen += t1.Sub(t0)
				if err != nil {
					return fmt.Errorf("scenario %d: %w", s, err)
				}
				c = t.begin("m2m.session_build", pp)
				run, err := m2m.NewScenarioRun(sc)
				t.end(c)
				d := time.Since(t1)
				build += d
				if err != nil {
					return fmt.Errorf("scenario %d: building session: %w", s, err)
				}
				if !traced {
					bestBuild.keep(lo+len(runs), d)
				}
				runs = append(runs, run)
			}

			for k, run := range runs {
				i, s := lo+k, seeds[lo+k]
				var sum float64
				wasTDMA := false
				for round := 0; round < limit[i]; round++ {
					var objs0 uint64
					if traced {
						objs0 = heapObjects()
					}
					c := t.begin("m2m.step", pp)
					t1 := time.Now()
					st, err := run.Step()
					d := time.Since(t1)
					t.end(c)
					if traced {
						stepObjs += heapObjects() - objs0
					}
					stepping += d
					if err != nil {
						r.failed++
						r.check(false, "scenario %d round %d: step failed in the timed pass: %v", s, round, err)
						break
					}
					replanned := len(st.Recoveries)+len(st.Rejoins)+st.Evacuations+len(st.Excisions)+len(st.Readmissions) > 0 ||
						(st.TDMA && !wasTDMA)
					wasTDMA = st.TDMA
					pt.add(st)
					sum += st.EnergyJ
					if replanned {
						pt.replans++
					}
					if traced {
						if replanned {
							replanT.addDur(d)
						} else {
							quietT.addDur(d)
						}
						continue
					}
					stepT.addDur(d)
					bestStep.keep(first[i]+round, d)
					replanStep[first[i]+round] = replanned
				}
				r.check(sum == run.Session.TotalEnergyJ(),
					"scenario %d: per-round EnergyJ sums to %v, TotalEnergyJ is %v", s, sum, run.Session.TotalEnergyJ())
			}
		}
		t.end(pp)
		passDur := gen + build + stepping
		if traced {
			stepAllocs.add(float64(stepObjs) / float64(pt.rounds))
			genT.addDur(gen)
			buildT.addDur(build)
			passTraced.addDur(passDur)
		} else {
			setup.addDur(gen + build)
			roundsRun += float64(pt.rounds)
			passUntraced.addDur(passDur)
		}
		r.check(pass == 0 || pt == tot, "pass %d: simulated totals differ from pass 0", pass)
		tot = pt
		r.check(pt.negOther == 0, "%d rounds spent less than their detour and replan energy", pt.negOther)
		r.alias("lagged_replan_rounds", float64(pt.lagged), "count", pt.rounds)
	}

	var steps, replanSteps samples
	var stepSum float64
	for k, d := range bestStep {
		if math.IsInf(d, 1) {
			continue // past a step that failed in a timed pass
		}
		steps.add(d)
		stepSum += d
		if replanStep[k] {
			replanSteps.add(d)
		}
	}
	r.e2e("setup_s", setup.median(), "s", setup.len())
	r.e2e("plan_s", samples(bestBuild).median(), "s", len(bestBuild))
	r.e2e("replan_s", replanSteps.median(), "s", replanSteps.len())
	rate := float64(steps.len()) / stepSum
	r.e2e("rounds_per_s", rate, "rounds/s", steps.len())
	r.e2e("step_ms", steps.median()*1e3, "ms", steps.len())
	r.alias("step_p50_ms", stepT.median()*1e3, "ms", stepT.len())
	r.alias("step_p90_ms", stepT.quantile(0.90)*1e3, "ms", stepT.len())
	r.alias("step_p99_ms", stepT.p99()*1e3, "ms", stepT.len())
	r.e2e("sim_mJ_per_round", tot.energyJ/float64(tot.rounds)*1e3, "mJ", 0)
	served := tot.fresh + tot.stale + tot.starved
	r.e2e("fresh_frac", float64(tot.fresh)/float64(served), "ratio", 0)
	r.attempted += int(roundsRun)
	r.alias("rounds_per_s", rate, "rounds/s", int(roundsRun))
	r.alias("round_p99_ms", stepT.p99()*1e3, "ms", stepT.len())
	r.alias("sim_mJ_per_round", tot.energyJ/float64(tot.rounds)*1e3, "mJ", tot.rounds)
	r.alias("fresh_frac", float64(tot.fresh)/float64(served), "ratio", served)
	r.alias("legit_step_errors", float64(legit), "count", count)
	r.alias("fail_frac", float64(legit)/float64(tot.rounds+legit), "ratio", tot.rounds+legit)

	if cfg.trace {
		r.layer("chaos.generate_ms", genT.median()*1e3, "ms", genT.len())
		r.layer("m2m.session_build_ms", buildT.median()*1e3, "ms", buildT.len())
		r.layer("m2m.step_quiet_us", quietT.median()*1e6, "us", quietT.len())
		r.layer("m2m.step_replan_ms", replanT.median()*1e3, "ms", replanT.len())
		r.layer("m2m.step_allocs", stepAllocs.median(), "count", stepAllocs.len())
		r.layer("m2m.replans", float64(tot.replans), "count", 0)
		per := 1e3 / float64(tot.rounds)
		r.layer("m2m.detour_mJ", tot.detourJ*per, "mJ", 0)
		r.layer("wire.replan_mJ", tot.replanJ*per, "mJ", 0)
		r.layer("sim.other_mJ", (tot.energyJ-tot.detourJ-tot.replanJ)*per, "mJ", 0)
		r.layer("m2m.detours", float64(tot.detours), "count", 0)
		r.layer("sim.collisions", float64(tot.collisions), "count", 0)
		r.layer("sim.epoch_dropped", float64(tot.epochDropped), "count", 0)
		r.layer("m2m.fresh", float64(tot.fresh), "count", 0)
		r.layer("m2m.stale", float64(tot.stale), "count", 0)
		r.layer("m2m.starved", float64(tot.starved), "count", 0)
		r.layer("sim.deadline_misses", float64(tot.deadlineMisses), "count", 0)
		r.layer("trace.overhead_frac", passTraced.median()/passUntraced.median()-1, "ratio", 0)
	}
	return nil
}

// mixTotals sums one pass's simulated outcomes; passes over the same
// scenarios must agree exactly.
type mixTotals struct {
	rounds, replans, detours, collisions, epochDropped int
	fresh, stale, starved, deadlineMisses, negOther    int
	// lagged counts rounds whose ReplanJ is not that round's spend: each
	// replan event prices its own whole table diff, but a diff only partly
	// disseminated this round (EpochLag > 0) is finished in later rounds,
	// and the diffs of several events in one round go out merged, once.
	// The non-negative remainder check skips these rounds.
	lagged                    int
	energyJ, detourJ, replanJ float64
}

func (m *mixTotals) add(st *m2m.ResilientStep) {
	m.rounds++
	m.detours += st.Detours
	m.collisions += st.Collisions
	m.epochDropped += st.EpochDropped
	m.fresh += st.Fresh
	m.stale += st.Stale
	m.starved += st.Starved
	m.deadlineMisses += st.DeadlineMisses
	replanJ, events := 0.0, len(st.Recoveries)+len(st.Excisions)
	for _, ev := range st.Recoveries {
		replanJ += ev.ReplanJ
	}
	for _, ev := range st.Excisions {
		replanJ += ev.ReplanJ
	}
	m.energyJ += st.EnergyJ
	m.detourJ += st.DetourJ
	m.replanJ += replanJ
	switch {
	case events > 1 || (events == 1 && st.EpochLag > 0):
		m.lagged++
	case st.EnergyJ-st.DetourJ-replanJ < -1e-12*st.EnergyJ:
		m.negOther++
	}
}

// bestTimes holds each repeated operation's best time in seconds (+Inf
// until the operation has run).
type bestTimes []float64

func newBestTimes(n int) bestTimes {
	b := make(bestTimes, n)
	for i := range b {
		b[i] = math.Inf(1)
	}
	return b
}

// keep records one run of operation i.
func (b bestTimes) keep(i int, d time.Duration) {
	b[i] = min(b[i], d.Seconds())
}

// heapObjects reads the heap objects allocated so far, tiny allocations
// included, without stopping the world.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

package invariant

import (
	"bytes"
	"math"

	"m2m"
	"m2m/internal/agg"
	"m2m/internal/failure"
	"m2m/internal/plan"
	"m2m/internal/routing"
	"m2m/internal/wire"
)

// CheckSeed generates the scenario for a seed and checks it.
func CheckSeed(seed int64) *Report {
	sc, err := m2m.GenerateScenario(seed)
	if err != nil {
		rep := &Report{Seed: seed}
		rep.addf("build", -1, "generating scenario: %v", err)
		return rep
	}
	return Check(sc)
}

// Check runs the scenario through a live session with every invariant
// checker enabled.
func Check(sc *m2m.Scenario) *Report { return CheckWith(sc, Options{}) }

// CheckWith is Check with options (test hooks).
func CheckWith(sc *m2m.Scenario, opts Options) *Report {
	rep := &Report{Seed: sc.Seed, Scenario: sc}
	run, err := m2m.NewScenarioRun(sc)
	if err != nil {
		rep.addf("build", -1, "building run: %v", err)
		return rep
	}
	c := newChecker(run)
	for i := 0; i < sc.Rounds && len(rep.Violations) < maxViolations; i++ {
		c.observeGround(i)
		step, err := run.Step()
		if err != nil {
			if !c.acceptableError(i) {
				rep.addf("session-error", i,
					"step failed on a connected topology with a live workload: %v", err)
			}
			rep.Rounds = i
			return rep // the session is not steppable past an error
		}
		if opts.MutateStep != nil {
			opts.MutateStep(step)
		}
		c.checkStep(rep, step)
		rep.Rounds = i + 1
	}
	if len(rep.Violations) < maxViolations {
		c.checkEnd(rep)
	}
	return rep
}

func (c *checker) checkStep(rep *Report, step *m2m.ResilientStep) {
	round := step.Round
	// Recoveries, excisions and readmissions replan after the round ran,
	// so this step's reports reflect the pre-replan workload; value and
	// spec-membership checks skip such transition steps.
	transition := len(step.Recoveries)+len(step.Excisions)+len(step.Readmissions) > 0

	specs := c.sess.Workload()
	funcs := make(map[m2m.NodeID]m2m.Func, len(specs))
	for _, sp := range specs {
		funcs[sp.Dest] = sp.Func
	}

	c.checkReports(rep, step, funcs, transition)
	if !transition {
		c.checkExactness(rep, step, funcs)
	}
	c.checkCondemnations(rep, step)
	c.checkExcisions(rep, step)
	if c.quiet && step.Quarantined > 0 {
		rep.addf("quarantine", round,
			"%d nodes quarantined in a scenario with no severing fault dimension", step.Quarantined)
	}
	c.checkEnergy(rep, step)
	c.checkEpoch(rep, step)
	c.checkTDMA(rep, step)
	c.prevTDMA = step.TDMA
}

// checkReports validates every delivery report, its membership in the
// current workload, coverage of only ground-truth-live sources, and the
// step's Fresh/Stale/Starved tallies.
func (c *checker) checkReports(rep *Report, step *m2m.ResilientStep, funcs map[m2m.NodeID]m2m.Func, transition bool) {
	round := step.Round
	fresh, stale, starved := 0, 0, 0
	for d, r := range step.Reports {
		if err := r.Validate(); err != nil {
			rep.addf("report", round, "%v", err)
			continue
		}
		if r.Dest != d {
			rep.addf("report", round, "report keyed %d names destination %d", d, r.Dest)
			continue
		}
		switch {
		case r.Fresh:
			fresh++
		case r.Starved:
			starved++
		default:
			stale++
		}
		for _, s := range r.Covered {
			if c.inj.NodeDead(round, s) || c.depletedBefore[s] {
				rep.addf("report", round, "dest %d covers source %d, which was dead this round", d, s)
			}
		}
		if transition {
			continue // the replan already rewrote the spec set
		}
		f, ok := funcs[d]
		if !ok {
			rep.addf("report", round, "report for destination %d, which is not in the workload", d)
			continue
		}
		allowed := make(map[m2m.NodeID]bool)
		for _, s := range f.Sources() {
			allowed[s] = true
		}
		for _, s := range r.Covered {
			if !allowed[s] {
				rep.addf("report", round, "dest %d covers %d, not a source of its function", d, s)
			}
		}
	}
	if fresh != step.Fresh || stale != step.Stale || starved != step.Starved {
		rep.addf("report", round, "tallies fresh/stale/starved %d/%d/%d do not match reports %d/%d/%d",
			step.Fresh, step.Stale, step.Starved, fresh, stale, starved)
	}
}

// checkExactness compares every fresh destination's value against the
// out-of-network reference aggregate over the same (corrupted) readings.
// A liar influences the reference only through its own reading, so this
// also pins the no-liar-influence invariant.
func (c *checker) checkExactness(rep *Report, step *m2m.ResilientStep, funcs map[m2m.NodeID]m2m.Func) {
	round := step.Round
	readings := c.run.Readings()
	if readings == nil {
		return
	}
	for d, r := range step.Reports {
		if !r.Fresh {
			continue
		}
		f, ok := funcs[d]
		if !ok {
			continue // flagged by checkReports
		}
		in := make(map[m2m.NodeID]float64, len(f.Sources()))
		for _, s := range f.Sources() {
			in[s] = c.inj.CorruptReading(round, s, readings[s])
		}
		want, err := agg.Eval(f, in)
		if err != nil {
			rep.addf("exactness", round, "reference aggregate for dest %d: %v", d, err)
			continue
		}
		got, ok := step.Values[d]
		if !ok {
			rep.addf("exactness", round, "fresh dest %d has no value", d)
			continue
		}
		if !closeEnough(got, want) {
			rep.addf("exactness", round, "fresh dest %d reports %v, reference aggregate is %v", d, got, want)
		}
	}
}

// checkCondemnations requires every permanent-failure declaration to be
// justified by ground truth: the node was dead (schedule or ledger) or
// severed from the base station within the detection window.
func (c *checker) checkCondemnations(rep *Report, step *m2m.ResilientStep) {
	round := step.Round
	for _, ev := range step.Recoveries {
		justified := false
		for r := round - c.lookback; r <= round; r++ {
			if r < 0 || r >= len(c.history) {
				continue
			}
			if c.history[r][ev.Dead] {
				justified = true
				break
			}
		}
		if !justified {
			rep.addf("condemnation", round,
				"node %d condemned but never dead or severed in the last %d rounds", ev.Dead, c.lookback)
		}
		c.condemned[ev.Dead] = round
	}
	for _, n := range step.Rejoins {
		delete(c.condemned, n)
	}
}

// checkExcisions requires every excised source to be a scenario liar.
func (c *checker) checkExcisions(rep *Report, step *m2m.ResilientStep) {
	for _, ex := range step.Excisions {
		if !c.byzNodes[ex.Node] {
			rep.addf("excision", step.Round, "honest source %d excised (residual %v)", ex.Node, ex.Residual)
		}
	}
}

// checkEnergy reconciles the session's priced energy with the battery
// ledger: exact until the first brown-out (detours are priced but never
// debited), an upper bound afterwards (a browned-out node's control
// traffic goes unpaid).
func (c *checker) checkEnergy(rep *Report, step *m2m.ResilientStep) {
	c.sumAllJ += step.EnergyJ
	if c.bat == nil {
		return
	}
	if step.DetourJ < 0 || step.DetourJ > step.EnergyJ+1e-9 {
		rep.addf("energy", step.Round, "detour energy %v outside [0, %v]", step.DetourJ, step.EnergyJ)
	}
	c.sumPaidJ += step.EnergyJ - step.DetourJ
	if len(step.Depleted) > 0 {
		c.depletedSeen = true
	}
	spent := c.bat.TotalSpentJ()
	tol := 1e-9 + 1e-12*c.sumPaidJ
	if c.depletedSeen {
		if spent > c.sumPaidJ+tol {
			rep.addf("energy", step.Round,
				"ledger spent %v exceeds priced non-detour energy %v", spent, c.sumPaidJ)
		}
	} else if math.Abs(spent-c.sumPaidJ) > tol {
		rep.addf("energy", step.Round,
			"ledger spent %v != priced non-detour energy %v (diff %v)", spent, c.sumPaidJ, spent-c.sumPaidJ)
	}
}

// checkEpoch enforces plan-epoch sanity: monotone, and an epoch that
// never moved implies no fenced or dropped frames anywhere.
func (c *checker) checkEpoch(rep *Report, step *m2m.ResilientStep) {
	ep := c.sess.PlanEpoch()
	if ep < c.lastEpoch {
		rep.addf("epoch", step.Round, "plan epoch moved backwards: %d -> %d", c.lastEpoch, ep)
	}
	if ep == 1 && (step.EpochDropped != 0 || step.EpochLag != 0) {
		rep.addf("epoch", step.Round,
			"no replan ever happened but %d frames dropped, %d nodes lagging", step.EpochDropped, step.EpochLag)
	}
	c.lastEpoch = ep
}

// checkTDMA holds every scenario to the scheduled discipline's contract:
// once the session has switched, no round collides, lossy or not. In
// collision-only fault-free scenarios every such round must also be
// bit-identical to a plain synchronous Execute of the same plan.
func (c *checker) checkTDMA(rep *Report, step *m2m.ResilientStep) {
	if !c.prevTDMA {
		return
	}
	round := step.Round
	if step.Collisions != 0 {
		rep.addf("tdma", round, "%d collisions in a scheduled round", step.Collisions)
	}
	if !c.collideOnly {
		return
	}
	want, err := m2m.Execute(c.sess.CurrentPlan(), c.run.Net, c.run.Readings())
	if err != nil {
		rep.addf("tdma", round, "reference execution: %v", err)
		return
	}
	for d, r := range step.Reports {
		if !r.Fresh {
			rep.addf("tdma", round, "dest %d not fresh in a fault-free scheduled round", d)
			continue
		}
		if step.Values[d] != want.Values[d] {
			rep.addf("tdma", round, "scheduled value for dest %d is %v, plain execution gives %v",
				d, step.Values[d], want.Values[d])
		}
	}
}

// checkEnd runs the end-of-session invariants: total-energy accounting
// and post-heal convergence — the session's incrementally maintained
// plan must encode byte-identically to a plan built from scratch on the
// surviving topology with the same router, prices and workload.
func (c *checker) checkEnd(rep *Report) {
	if !closeEnough(c.sess.TotalEnergyJ(), c.sumAllJ) {
		rep.addf("energy", -1, "session total %v J != summed step energy %v J",
			c.sess.TotalEnergyJ(), c.sumAllJ)
	}

	g := c.run.Net.Graph
	deadList := c.sess.DeadNodes()
	dead := make(map[m2m.NodeID]bool, len(deadList))
	for _, d := range deadList {
		var err error
		if g, err = failure.RemoveNode(g, d); err != nil {
			rep.addf("convergence", -1, "removing dead node %d: %v", d, err)
			return
		}
		dead[d] = true
	}
	specs := c.sess.Workload()
	if len(specs) == 0 {
		rep.addf("convergence", -1, "session finished with an empty workload")
		return
	}
	hot := make(map[m2m.NodeID]bool)
	for _, n := range c.sess.EvacuatedNodes() {
		if !dead[n] {
			hot[n] = true
		}
	}
	var inst *plan.Instance
	var err error
	if len(hot) > 0 {
		// The scenario generator never overrides the evacuation penalty,
		// so the session runs with the documented default of 8.
		wg, werr := failure.EvacuationGraph(g, hot, 8)
		if werr != nil {
			rep.addf("convergence", -1, "evacuation graph: %v", werr)
			return
		}
		inst, err = plan.NewInstance(wg, routing.NewWeightedReversePath(wg), specs)
	} else {
		net2 := &m2m.Network{Layout: c.run.Net.Layout, Graph: g, Radio: c.run.Net.Radio}
		inst, err = net2.NewInstance(specs, c.run.Kind)
	}
	if err != nil {
		rep.addf("convergence", -1, "from-scratch instance: %v", err)
		return
	}
	scratch, err := plan.OptimizeWithPrices(inst, c.sess.EnergyPrices())
	if err != nil {
		rep.addf("convergence", -1, "from-scratch plan: %v", err)
		return
	}
	sessPlan := c.sess.CurrentPlan()
	sessTab, err := sessPlan.BuildTables()
	if err != nil {
		rep.addf("convergence", -1, "session tables: %v", err)
		return
	}
	scratchTab, err := scratch.BuildTables()
	if err != nil {
		rep.addf("convergence", -1, "from-scratch tables: %v", err)
		return
	}
	differ := 0
	for i := 0; i < g.Len(); i++ {
		n := m2m.NodeID(i)
		got, gerr := wire.EncodeNodeTables(sessPlan.Inst, sessTab, n)
		if gerr != nil {
			rep.addf("convergence", -1, "encoding session tables for node %d: %v", n, gerr)
			return
		}
		want, werr := wire.EncodeNodeTables(inst, scratchTab, n)
		if werr != nil {
			rep.addf("convergence", -1, "encoding from-scratch tables for node %d: %v", n, werr)
			return
		}
		if !bytes.Equal(got, want) {
			differ++
		}
	}
	if differ > 0 {
		rep.addf("convergence", -1,
			"session plan differs from a from-scratch plan on the surviving topology at %d node(s)", differ)
	}
}

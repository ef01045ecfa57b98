// Package invariant is the checker suite of the deterministic
// simulation-testing subsystem: it replays a generated scenario
// (internal/chaos) through a live ResilientSession and verifies global
// invariants against every step and once more at session end, against
// ground truth reconstructed independently from the fault schedules.
//
// The per-step checkers:
//
//   - report: every DeliveryReport passes Validate, coverage stays
//     within the destination's spec sources, no schedule-dead source is
//     ever covered, and the Fresh/Stale/Starved tallies match.
//   - exactness: a fresh destination's value equals the out-of-network
//     reference aggregate over the (byzantine-corrupted) readings to
//     relative 1e-9 — which also pins no-liar-influence, since a liar
//     enters the reference only through its own reading.
//   - condemnation: a node declared permanently failed was actually
//     dead (schedule or ledger) or severed from the base within the
//     detection window — no false condemnation.
//   - excision: only scenario liars are ever excised.
//   - quarantine: scenarios with no severing dimension never quarantine.
//   - energy: cumulative session energy minus detour traffic matches the
//     battery ledger exactly (1e-12 scale) until the first brown-out,
//     and bounds it from above afterwards.
//   - epoch: the plan epoch is monotone, and an epoch that never moved
//     implies no fenced or dropped frames.
//   - tdma: no round after the TDMA switch collides; in collision-only
//     fault-free scenarios every such round is also bit-identical to
//     plain Execute.
//
// At session end the convergence checker rebuilds a plan from scratch on
// the surviving topology and requires the session's incrementally
// maintained plan to encode to byte-identical per-node tables.
package invariant

import (
	"fmt"
	"math"

	"m2m"
	"m2m/internal/routing"
)

// Violation is one invariant failure observed during a checked run.
type Violation struct {
	// Checker names the invariant that fired (e.g. "exactness").
	Checker string `json:"checker"`
	// Round is the 0-based round of the failure, or -1 for end-of-run
	// and build-time failures.
	Round int `json:"round"`
	// Msg describes the failure.
	Msg string `json:"msg"`
}

func (v Violation) String() string {
	if v.Round < 0 {
		return fmt.Sprintf("[%s] %s", v.Checker, v.Msg)
	}
	return fmt.Sprintf("[%s] round %d: %s", v.Checker, v.Round, v.Msg)
}

// Report is the outcome of checking one scenario.
type Report struct {
	// Seed identifies the scenario (its generator seed).
	Seed int64 `json:"seed"`
	// Scenario is the checked scenario, with any derived fields (e.g.
	// battery capacity) pinned by the run.
	Scenario *m2m.Scenario `json:"scenario,omitempty"`
	// Rounds is how many rounds actually executed.
	Rounds int `json:"rounds"`
	// Violations lists every invariant failure, in order of detection.
	Violations []Violation `json:"violations,omitempty"`
}

// Failed reports whether any invariant fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) String() string {
	if !r.Failed() {
		return fmt.Sprintf("seed %d: ok (%d rounds)", r.Seed, r.Rounds)
	}
	s := fmt.Sprintf("seed %d: %d violation(s) in %d rounds", r.Seed, len(r.Violations), r.Rounds)
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

func (r *Report) addf(checker string, round int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Checker: checker,
		Round:   round,
		Msg:     fmt.Sprintf(format, args...),
	})
}

// Options tunes a checked run.
type Options struct {
	// MutateStep, when set, perturbs each step before the checkers see
	// it. It exists for mutation-testing the checkers themselves: a
	// deliberately corrupted step must be caught.
	MutateStep func(*m2m.ResilientStep)
}

// maxViolations stops a checked run once this many violations accumulate.
const maxViolations = 8

// checker carries the ground-truth state threaded through a run.
type checker struct {
	run  *m2m.ScenarioRun
	sc   *m2m.Scenario
	sess *m2m.ResilientSession
	inj  *m2m.FaultInjector
	bat  *m2m.Battery

	// byzNodes is the set of scenario liars (any window).
	byzNodes map[m2m.NodeID]bool
	// collideOnly marks scenarios whose only fault dimension is the
	// collision channel: post-switch TDMA rounds must be bit-exact.
	collideOnly bool
	// quiet marks scenarios with no dimension that can kill or sever a
	// node, so any quarantine is a false positive.
	quiet bool
	// lookback is the condemnation-justification window: a condemned
	// node must have been dead or severed within this many rounds.
	lookback int

	// condemned maps declared-dead nodes to their condemnation round;
	// rejoins clear entries.
	condemned map[m2m.NodeID]int
	// history[r] is the ground-truth set of nodes that were dead or
	// severed from the base during round r.
	history []map[m2m.NodeID]bool
	// depletedBefore snapshots ledger-depleted nodes before each round.
	depletedBefore map[m2m.NodeID]bool

	depletedSeen bool
	sumPaidJ     float64 // cumulative EnergyJ minus detours (ledger-debited)
	sumAllJ      float64 // cumulative EnergyJ
	lastEpoch    uint32
	prevTDMA     bool
}

func newChecker(run *m2m.ScenarioRun) *checker {
	sc := run.Scenario
	c := &checker{
		run:            run,
		sc:             sc,
		sess:           run.Session,
		inj:            run.Injector,
		bat:            run.Battery,
		byzNodes:       make(map[m2m.NodeID]bool, len(sc.Byzantine)),
		condemned:      make(map[m2m.NodeID]int),
		depletedBefore: make(map[m2m.NodeID]bool),
		lastEpoch:      1,
	}
	for _, b := range sc.Byzantine {
		c.byzNodes[m2m.NodeID(b.Node)] = true
	}
	noFaults := sc.Loss == 0 && len(sc.Outages) == 0 && sc.Partition == nil &&
		len(sc.Crashes) == 0 && len(sc.Depletions) == 0 &&
		sc.Async == nil && sc.Battery == nil && len(sc.Byzantine) == 0
	c.collideOnly = sc.Collide != nil && noFaults
	c.quiet = sc.Collide == nil && noFaults
	// Condemnation takes at most MissThreshold windows of DetourBudget
	// vindications plus slack; knob value 0 means the session default.
	k, b := sc.MissThreshold, sc.DetourBudget
	if k == 0 {
		k = 3
	}
	if b == 0 {
		b = 5
	}
	c.lookback = k + b + 2
	return c
}

// observeGround records, before round r runs, which nodes are dead per
// ground truth (fault schedule, ledger, prior condemnation) and which
// alive nodes the round's link faults sever from the base station.
func (c *checker) observeGround(round int) {
	g := c.run.Net.Graph
	n := g.Len()
	dead := make(map[m2m.NodeID]bool)
	depleted := make(map[m2m.NodeID]bool)
	for i := 0; i < n; i++ {
		id := m2m.NodeID(i)
		if c.bat != nil && c.bat.Depleted(id) {
			depleted[id] = true
			dead[id] = true
		}
		if c.inj.NodeDead(round, id) {
			dead[id] = true
		}
	}
	for d := range c.condemned {
		dead[d] = true
	}
	c.depletedBefore = depleted

	state := make(map[m2m.NodeID]bool, len(dead))
	for d := range dead {
		state[d] = true
	}
	base := m2m.NodeID(-1)
	for i := 0; i < n; i++ {
		if !dead[m2m.NodeID(i)] {
			base = m2m.NodeID(i)
			break
		}
	}
	if base >= 0 {
		seen := make([]bool, n)
		seen[base] = true
		queue := []m2m.NodeID{base}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if seen[v] || dead[v] || c.linkDown(round, u, v) {
					continue
				}
				seen[v] = true
				queue = append(queue, v)
			}
		}
		for i := 0; i < n; i++ {
			id := m2m.NodeID(i)
			if !dead[id] && !seen[id] {
				state[id] = true // alive but severed
			}
		}
	}
	c.history = append(c.history, state)
}

// linkDown reports whether either direction of {u,v} is cut this round.
func (c *checker) linkDown(round int, u, v m2m.NodeID) bool {
	return c.inj.LinkDown(round, routing.Edge{From: u, To: v}) ||
		c.inj.LinkDown(round, routing.Edge{From: v, To: u})
}

// groundDead is the schedule/ledger/condemnation dead set at a round,
// ignoring link faults.
func (c *checker) groundDead(round int) map[m2m.NodeID]bool {
	n := c.run.Net.Graph.Len()
	dead := make(map[m2m.NodeID]bool)
	for i := 0; i < n; i++ {
		id := m2m.NodeID(i)
		if c.inj.NodeDead(round, id) || (c.bat != nil && c.bat.Depleted(id)) {
			dead[id] = true
		}
	}
	for d := range c.condemned {
		dead[d] = true
	}
	return dead
}

// acceptableError classifies a Step error: the session is expected to
// surface an error (rather than wedge) when ground truth has severed or
// killed its way to an impossible state — the survivors are
// disconnected, the workload pruned empty, or a recovery inside the
// failing step excised a silent node whose absence breaks a routing
// pair. Anything else is a bug.
func (c *checker) acceptableError(round int) bool {
	dead := c.groundDead(round)
	g := c.run.Net.Graph

	alive := 0
	for i := 0; i < g.Len(); i++ {
		if !dead[m2m.NodeID(i)] {
			alive++
		}
	}
	if alive == 0 {
		return true
	}
	// Permanent disconnection (graph minus dead) or transient severance
	// (additionally minus this round's link faults): both legitimately
	// abort a replan or an evacuation beacon.
	if !c.connected(round, dead, false) || !c.connected(round, dead, true) {
		return true
	}
	// The step that errors never returns, so condemnations it performed
	// are invisible to us: the session may already have removed nodes
	// that ground truth still counts merely as severed. Anything dead or
	// severed inside the condemnation window is fair game for such an
	// in-flight excision. Crucially, the session only prunes endpoints
	// it has itself declared dead — a destination that browns out
	// silently stays in the workload and legitimately breaks the next
	// replan's routing. So the error is acceptable if removing the
	// whole condemnable set disconnects the survivors, or if a spec the
	// session still holds references a condemnable endpoint the session
	// has not pruned.
	condemnable := make(map[m2m.NodeID]bool, len(dead))
	for d := range dead {
		condemnable[d] = true
	}
	sessDead := make(map[m2m.NodeID]bool)
	for _, d := range c.sess.DeadNodes() {
		condemnable[d] = true
		sessDead[d] = true
	}
	lo := len(c.history) - c.lookback
	if lo < 0 {
		lo = 0
	}
	for r := lo; r < len(c.history); r++ {
		for id := range c.history[r] {
			condemnable[id] = true
		}
	}
	if !c.connected(round, condemnable, false) || !c.connected(round, condemnable, true) {
		return true
	}
	liveSpec := false
	for _, sp := range c.sess.Workload() {
		if sessDead[sp.Dest] {
			continue // the planner prunes this spec itself
		}
		if condemnable[sp.Dest] {
			return true
		}
		for _, s := range sp.Func.Sources() {
			if sessDead[s] {
				continue
			}
			if condemnable[s] {
				return true
			}
			liveSpec = true
		}
	}
	// No spec survives with all endpoints healthy: the workload pruned
	// itself out from under the session.
	return !liveSpec
}

// connected reports whether the non-dead nodes form one component, with
// or without filtering this round's link faults.
func (c *checker) connected(round int, dead map[m2m.NodeID]bool, filterLinks bool) bool {
	g := c.run.Net.Graph
	n := g.Len()
	start := m2m.NodeID(-1)
	alive := 0
	for i := 0; i < n; i++ {
		if !dead[m2m.NodeID(i)] {
			alive++
			if start < 0 {
				start = m2m.NodeID(i)
			}
		}
	}
	if alive == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	reached := 1
	queue := []m2m.NodeID{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if seen[v] || dead[v] {
				continue
			}
			if filterLinks && c.linkDown(round, u, v) {
				continue
			}
			seen[v] = true
			reached++
			queue = append(queue, v)
		}
	}
	return reached == alive
}

// closeEnough is the relative-tolerance comparison the value checkers
// use: in-network merge order may differ from the linear reference.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

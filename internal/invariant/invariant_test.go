package invariant

import (
	"testing"

	"m2m"
)

// TestScenarioInvariantsSmoke is the in-package slice of the CI fuzz
// smoke: a block of seeded scenarios, every checker enabled, zero
// violations expected. The cmd/m2mfuzz CI job runs a larger block under
// the race detector.
func TestScenarioInvariantsSmoke(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 40
	}
	for seed := int64(1); seed <= n; seed++ {
		rep := CheckSeed(seed)
		if rep.Failed() {
			t.Errorf("%s", rep.String())
		}
	}
}

// Pinned regressions: seeds whose scenarios found real bugs during the
// first soak. Each must now check clean.
func TestPinnedSeeds(t *testing.T) {
	pinned := map[int64]string{
		// Condemnation under the shared-tree router: removing a failed
		// node leaves an isolated graph slot, and NewSharedTree used to
		// reject the whole topology as disconnected.
		44: "shared-tree replan after condemnation",
		// Same failure mode through the min-degree router, plus a
		// Parent[-1] panic seeding its BFS tree.
		10: "min-degree replan after condemnation",
		// Byzantine windows with pulse readings: an honest spike is
		// indistinguishable from a lie, so the composition is now
		// excluded by the generator and Validate.
		55: "byzantine composition excludes pulse readings",
		79: "byzantine composition excludes pulse readings",
		// The 10k soak's second wave: independent random walks drift
		// into persistent excursions that the excision persistence
		// window cannot filter, so walk readings are excluded from
		// byzantine scenarios too.
		2529: "byzantine composition excludes walk readings",
		7635: "byzantine composition excludes walk readings",
		// Battery brown-outs sever a workload endpoint the session has
		// no grounds to prune; the replan's routing error is legitimate
		// and the classifier must credit in-flight condemnations.
		8449: "severed endpoint aborts replan under brown-out",
		9199: "severed endpoint aborts replan under brown-out",
		// Collide scenarios under link loss: TDMA retries and late
		// dependents fired outside their own frame slots, collided
		// round after round, and K-miss detection condemned a live node.
		500952:   "lossy TDMA retries stay in their own slots",
		20300971: "lossy TDMA retries stay in their own slots",
	}
	for seed, why := range pinned {
		rep := CheckSeed(seed)
		if rep.Failed() {
			t.Errorf("seed %d (%s):\n%s", seed, why, rep.String())
		}
	}
}

// mutateValues perturbs every destination value, which must trip the
// exactness checker on any scenario with a fresh, non-transition round.
func mutateValues(step *m2m.ResilientStep) {
	for d := range step.Values {
		step.Values[d] += 1e6
	}
}

// TestMutationCaught is the checker-of-the-checkers: a deliberately
// corrupted step must produce a violation, and the shrinker must reduce
// the scenario to a JSON repro that still fails after a round trip.
func TestMutationCaught(t *testing.T) {
	sc, err := m2m.GenerateScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MutateStep: mutateValues}
	rep := CheckWith(sc, opts)
	if !rep.Failed() {
		t.Fatal("corrupted values not caught by any checker")
	}
	sawExactness := false
	for _, v := range rep.Violations {
		if v.Checker == "exactness" {
			sawExactness = true
		}
	}
	if !sawExactness {
		t.Fatalf("corrupted values caught by the wrong checker:\n%s", rep.String())
	}

	min, minRep := Shrink(sc, opts, 120)
	if !minRep.Failed() {
		t.Fatal("shrinker lost the failure")
	}
	if scenarioSize(min) > scenarioSize(sc) {
		t.Fatalf("shrinker grew the scenario: %d > %d", scenarioSize(min), scenarioSize(sc))
	}

	// The emitted repro replays: JSON round trip, then re-check.
	data, err := min.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := m2m.DecodeScenario(data)
	if err != nil {
		t.Fatalf("repro does not decode: %v", err)
	}
	again := CheckWith(back, opts)
	if !again.Failed() {
		t.Fatal("decoded repro no longer fails")
	}
}

// TestShrinkDropsIrrelevantDimensions checks the shrinker actually
// simplifies: a mutation that fires regardless of faults must shrink to
// a scenario with no fault schedules left.
func TestShrinkDropsIrrelevantDimensions(t *testing.T) {
	var sc *m2m.Scenario
	for seed := int64(1); seed <= 200; seed++ {
		c, err := m2m.GenerateScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a scenario with several active dimensions so there is
		// something to drop.
		if c.Loss > 0 && len(c.Crashes) > 0 && (c.Async != nil || c.Partition != nil) {
			sc = c
			break
		}
	}
	if sc == nil {
		t.Fatal("no multi-dimension scenario in the first 200 seeds")
	}
	opts := Options{MutateStep: mutateValues}
	min, minRep := Shrink(sc, opts, 150)
	if !minRep.Failed() {
		t.Fatal("shrinker lost the failure")
	}
	if min.Loss != 0 || len(min.Crashes) > 0 || min.Async != nil || min.Partition != nil {
		data, _ := min.EncodeJSON()
		t.Errorf("fault dimensions survived shrinking a fault-independent failure:\n%s", data)
	}
	if min.Rounds > sc.Rounds/2 {
		t.Errorf("rounds not reduced: %d -> %d", sc.Rounds, min.Rounds)
	}
}

// TestCleanScenarioNotShrunk: Shrink on a passing scenario returns it
// unchanged with a clean report.
func TestCleanScenarioNotShrunk(t *testing.T) {
	sc, err := m2m.GenerateScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	min, rep := Shrink(sc, Options{}, 10)
	if rep.Failed() {
		t.Fatalf("clean scenario reported failing:\n%s", rep.String())
	}
	if scenarioSize(min) != scenarioSize(sc) {
		t.Error("clean scenario was mutated by the shrinker")
	}
}

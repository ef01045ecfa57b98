package m2m

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"

	"m2m/internal/chaos"
)

// scenarioStream builds a run of sc and returns the SHA-256 of its
// canonical step stream, or the error that stopped the build.
func scenarioStream(sc *Scenario) string {
	run, err := NewScenarioRun(sc)
	if err != nil {
		return "build error: " + err.Error()
	}
	return runStream(run)
}

// runStream steps run through its scenario's rounds and returns the
// SHA-256 of its canonical step stream.
func runStream(run *ScenarioRun) string {
	h := sha256.New()
	for r := 0; r < run.Scenario.Rounds; r++ {
		step, err := run.Step()
		if err != nil {
			fmt.Fprintf(h, "step error %s\n", err)
			break
		}
		canonical(h, reflect.ValueOf(step))
		io.WriteString(h, "\n")
	}
	canonical(h, reflect.ValueOf(run.Session.Recoveries()))
	canonical(h, reflect.ValueOf(run.Session.Excisions()))
	return hex.EncodeToString(h.Sum(nil))
}

// repro round-trips sc through its JSON repro format, which drops the
// generator's network and workload, so a run of the result builds its
// own.
func repro(t *testing.T, sc *Scenario) *Scenario {
	t.Helper()
	data, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestScenarioRunAdoptsGeneratedShape checks that the run of a generated
// scenario, which adopts the network and workload GenerateScenario drew,
// steps exactly like the run of its JSON repro, which builds them again.
func TestScenarioRunAdoptsGeneratedShape(t *testing.T) {
	for seed := int64(1); seed <= 140; seed++ {
		sc, err := GenerateScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rebuilt := repro(t, sc)
		// A struct copy shares the hand-off: taking it through the copy
		// and stashing it back shows which network the run adopts.
		c := *sc
		shape, ok := chaos.TakeShape(&c).(*scenarioShape)
		if !ok {
			t.Fatalf("seed %d: generated scenario carries no shape", seed)
		}
		if chaos.TakeShape(sc) != nil {
			t.Fatalf("seed %d: the shape was handed out twice", seed)
		}
		chaos.StashShape(sc, shape)
		run, err := NewScenarioRun(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.Net != shape.net {
			t.Fatalf("seed %d: the run built its own network", seed)
		}
		if got, want := runStream(run), scenarioStream(rebuilt); got != want {
			t.Errorf("seed %d: the generated run's stream %s differs from its repro's %s", seed, got, want)
		}
	}
}

// TestScenarioRunRebuildsEditedShape checks that a scenario whose shape
// fields were edited after generation, directly or on a struct copy,
// builds the edited network and workload rather than adopting the
// generator's.
func TestScenarioRunRebuildsEditedShape(t *testing.T) {
	edits := map[string]func(*Scenario){
		"workload-seed": func(sc *Scenario) { sc.WorkloadSeed++ },
		"nodes":         func(sc *Scenario) { sc.Nodes += 3 },
	}
	checked := 0
	for seed := int64(1); seed <= 40; seed++ {
		for name, edit := range edits {
			for _, viaCopy := range []bool{false, true} {
				sc, err := GenerateScenario(seed)
				if err != nil {
					t.Fatal(err)
				}
				if name == "nodes" && sc.Topology == "grid" {
					continue // a grid's node count follows its dimensions
				}
				target := sc
				if viaCopy {
					c := *sc
					target = &c
				}
				edit(target)
				if target.Validate() != nil {
					continue
				}
				want := scenarioStream(repro(t, target))
				if got := scenarioStream(target); got != want {
					t.Errorf("seed %d, %s edited (copy %t): stream %s, want the edited repro's %s",
						seed, name, viaCopy, got, want)
				}
				if viaCopy {
					// The untouched original still adopts the generator's shape.
					if got, want := scenarioStream(sc), scenarioStream(repro(t, sc)); got != want {
						t.Errorf("seed %d: original after an edited copy: stream %s, want %s", seed, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d edited scenarios checked", checked)
	}
}

// TestScenarioRunTwice checks that a second run of one scenario, which
// builds its own network and workload, steps exactly like the first,
// which adopted the generator's.
func TestScenarioRunTwice(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc, err := GenerateScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		if first, second := scenarioStream(sc), scenarioStream(sc); first != second {
			t.Errorf("seed %d: second run stream %s, first %s", seed, second, first)
		}
	}
}

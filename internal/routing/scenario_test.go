package routing_test

import (
	"testing"

	"m2m"
	"m2m/internal/routing"
)

// TestMinDegreeMatchesReferenceOnScenarios runs the differential check of
// TestMinDegreeMatchesReference on the network of every min-degree
// scenario among the fuzzing seeds 100001–101000.
func TestMinDegreeMatchesReferenceOnScenarios(t *testing.T) {
	last := int64(101000)
	if testing.Short() {
		last = 100100
	}
	checked := 0
	for seed := int64(100001); seed <= last; seed++ {
		sc, err := m2m.GenerateScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.Router != "mindeg" {
			continue
		}
		run, err := m2m.NewScenarioRun(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := routing.DiffMinDegreeOracle(run.Net.Graph); err != nil {
			t.Fatalf("seed %d (%s, %d nodes): min-degree tree: %v", seed, sc.Topology, sc.Nodes, err)
		}
		if err := routing.DiffSharedTreeOracle(run.Net.Graph); err != nil {
			t.Fatalf("seed %d (%s, %d nodes): shared tree: %v", seed, sc.Topology, sc.Nodes, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no min-degree scenario among the seeds")
	}
	t.Logf("%d min-degree scenarios checked", checked)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at reduced size on two seeds, untraced and
// traced, and checks that every output check passes and every declared
// metric is printed; in traced runs, that each workload measures the
// per-layer metrics layers.json assigns to it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	chdirRepoRoot(t)
	var layers struct {
		PerLayer []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"per_layer"`
	}
	readJSON(t, "perfbench/layers.json", &layers)

	for _, wl := range []string{"plan-10k", "resilient-mix", "serve-mix"} {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: wl, seed: seed, seconds: 1, trace: traced, small: true}
				r, err := run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", wl, seed, traced, err)
				}
				if !r.correct() {
					t.Errorf("%s seed %d trace %v: checks failed: %v", wl, seed, traced, r.failures)
				}
				_, final, err := r.lines(cfg)
				if err != nil {
					t.Fatalf("%s seed %d: %v", wl, seed, err)
				}
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(final), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s: printed %d metrics, want %d", wl, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s trace %v: metric %s missing or not in %s: %+v", wl, traced, m.name, m.unit, got)
					}
					if !traced && got.Value == 0 {
						t.Errorf("%s: end-to-end metric %s reads 0", wl, m.name)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("%s: attempted %d failed %d", wl, res.Attempted, res.Failed)
				}
				if traced {
					for _, l := range layers.PerLayer {
						if _, ok := r.perLayer[l.Metric]; l.Workload == wl && !ok {
							t.Errorf("%s traced run does not measure %s", wl, l.Metric)
						}
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics this program prints, and that layers.json covers them.
func TestBenchmarkJSON(t *testing.T) {
	chdirRepoRoot(t)
	type def struct {
		Name, Unit, Better string
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &bench)
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEndMetrics)
	same("per_layer", bench.PerLayer, perLayerMetrics)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}

	var layers struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer []struct {
			Metric   string   `json:"metric"`
			Moves    []string `json:"moves"`
			Workload string   `json:"workload"`
		} `json:"per_layer"`
	}
	readJSON(t, "perfbench/layers.json", &layers)
	for _, m := range endToEndMetrics {
		if len(layers.EndToEnd[m.name]) != len(workloads) {
			t.Errorf("layers.json does not define %s on every workload", m.name)
		}
	}
	mapped := map[string]bool{}
	for _, l := range layers.PerLayer {
		mapped[l.Metric] = true
		if _, ok := workloads[l.Workload]; !ok {
			t.Errorf("layers.json: %s on unknown workload %s", l.Metric, l.Workload)
		}
	}
	for _, m := range perLayerMetrics {
		if !mapped[m.name] {
			t.Errorf("layers.json does not map %s", m.name)
		}
	}
}

// chdirRepoRoot moves to the repository root, where the benchmark runs.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(wd) == "perfbench" {
		if err := os.Chdir(".."); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = os.Chdir(wd) })
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

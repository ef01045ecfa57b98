// Command perfbench is the m2m repository benchmark. It runs one named
// workload from a workload seed, checks that the outputs are correct, and
// prints every metric by name with its unit. It drives the layers from
// outside, timing calls into their public functions (the m2m facade and
// the sim, plan, serve and invariant packages); it adds no
// instrumentation to the program.
//
//	perfbench --workload plan-10k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and the last stdout line carries the
// end-to-end metrics. With --trace 1 the run alternates untraced and
// traced iterations: spans are kept in memory around each layer call,
// written to .bench_build/trace/ at the end, and the last line carries the
// per-layer metrics, including the tracing overhead against the untraced
// iterations. The line before the last is a report with the run's environment
// and every metric under the names the layer map (layers.json) uses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every input (the smoke test sets it).
	small bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, r *report) error{
	"plan-10k":      runPlan10k,
	"resilient-mix": runResilientMix,
	"serve-mix":     runServeMix,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: plan-10k, resilient-mix or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report, final, err := r.lines(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(report)
	fmt.Println(final)
	if !r.correct() {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1)
	}
}

// run executes one workload and returns its filled report.
func run(cfg config) (*report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := newReport(cfg)
	if cfg.trace {
		r.tr = newTracer()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.layer("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count", 0)
	r.layer("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms", 0)
	r.e2e("peak_rss_mb", peakRSSMB(), "MB", 0)
	if r.tr != nil {
		r.traceFile = r.tr.write(cfg)
	}
	return r, nil
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (report line only).
	N int `json:"n,omitempty"`
}

// report collects a run's metrics, counts and check outcomes.
type report struct {
	env       map[string]any
	endToEnd  map[string]metric
	aliases   map[string]metric
	perLayer  map[string]metric
	attempted int
	failed    int
	failures  []string
	notes     []string
	tr        *tracer
	traceFile string
}

func newReport(cfg config) *report {
	return &report{
		env:      environment(cfg),
		endToEnd: map[string]metric{},
		aliases:  map[string]metric{},
		perLayer: map[string]metric{},
	}
}

// e2e records an end-to-end metric (a name of endToEndMetrics) and the
// number of samples behind it (0 for a single measurement).
func (r *report) e2e(name string, v float64, unit string, n int) {
	r.endToEnd[name] = metric{Value: v, Unit: unit, N: n}
}

// alias records a workload-specific end-to-end metric under the issue's
// name (report line only; see layers.json).
func (r *report) alias(name string, v float64, unit string, n int) {
	r.aliases[name] = metric{Value: v, Unit: unit, N: n}
}

// layer records a per-layer metric (a name of perLayerMetrics).
func (r *report) layer(name string, v float64, unit string, n int) {
	r.perLayer[name] = metric{Value: v, Unit: unit, N: n}
}

// check records an output check; a failed check fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// lines renders the report line and the final result line.
func (r *report) lines(cfg config) (string, string, error) {
	names, want := endToEndMetrics, r.endToEnd
	if cfg.trace {
		names, want = perLayerMetrics, r.perLayer
	}
	out := make(map[string]metric, len(names))
	for _, m := range names {
		got, ok := want[m.name]
		if !ok {
			if !cfg.trace {
				return "", "", fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			// A layer this workload does not drive did no work in it.
			got = metric{}
		}
		if got.Unit != "" && got.Unit != m.unit {
			return "", "", fmt.Errorf("metric %s measured in %s, declared in %s", m.name, got.Unit, m.unit)
		}
		out[m.name] = metric{Value: got.Value, Unit: m.unit}
	}
	if r.attempted < 1 {
		return "", "", fmt.Errorf("no operation was attempted")
	}
	rep := map[string]any{
		"env":         r.env,
		"correct":     r.correct(),
		"attempted":   r.attempted,
		"failed":      r.failed,
		"fail_frac":   float64(r.failed) / float64(r.attempted),
		"end_to_end":  r.endToEnd,
		"workload":    r.aliases,
		"failures":    r.failures,
		"notes":       r.notes,
		"trace_spans": r.traceFile,
	}
	if cfg.trace {
		rep["per_layer"] = r.perLayer
	}
	repLine, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return "", "", err
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	return string(repLine), string(final), err
}

// environment records what makes a row comparable across machines.
func environment(cfg config) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"small":      cfg.small,
		"commit":     commitID(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

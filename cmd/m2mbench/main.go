// Command m2mbench regenerates the paper's evaluation figures and the
// ablation tables, and doubles as the repo's performance harness.
//
// Usage:
//
//	m2mbench -experiment fig3            # one figure as a text table
//	m2mbench -experiment all -csv        # everything, CSV format
//	m2mbench -list                       # enumerate experiments
//	m2mbench -experiment fig7 -seeds 5 -timesteps 20
//	m2mbench -json                       # core micro-benchmarks as JSON
//	m2mbench -json -cpuprofile cpu.out   # ... under the CPU profiler
//	m2mbench -experiment byzantine -json # one experiment's table as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"m2m"
	"m2m/internal/experiments"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/sim"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list       = flag.Bool("list", false, "list available experiments and exit")
		seeds      = flag.Int("seeds", 3, "number of random seeds to average over")
		timesteps  = flag.Int("timesteps", 10, "suppressed rounds per seed (fig7)")
		quick      = flag.Bool("quick", false, "reduced scale for smoke runs")
		jsonOut    = flag.Bool("json", false, "run the core micro-benchmarks and emit machine-readable JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-12s %s\n", r.ID, r.Paper)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	// -json alone runs the micro-benchmarks; -json with a specific
	// experiment emits that experiment's table as JSON (the format of the
	// checked-in BENCH_*.json artifacts).
	if *jsonOut && *experiment == "all" {
		if err := runMicroJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seeds > 0 {
		cfg.Seeds = cfg.Seeds[:0]
		for s := int64(1); s <= int64(*seeds); s++ {
			cfg.Seeds = append(cfg.Seeds, s)
		}
	}
	if *timesteps > 0 {
		cfg.Timesteps = *timesteps
	}

	var runners []experiments.Runner
	if *experiment == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.ByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	for i, r := range runners {
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m2mbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		if *jsonOut {
			if err := tbl.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else if *csv {
			fmt.Printf("# %s — %s\n", r.ID, r.Paper)
			if err := tbl.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			if err := tbl.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// benchRecord is one micro-benchmark line of the -json report, mirroring
// the fields benchstat reads from `go test -bench` output.
type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// runMicroJSON runs the core micro-benchmarks — plan optimization, one
// compiled round (pooled and zero-allocation reuse paths), a suppressed
// round, and incremental reoptimization — on the paper's evaluation
// network and emits the results as JSON (see BENCH_baseline.json and
// BENCH_compiled.json at the repo root for checked-in snapshots).
func runMicroJSON(w *os.File) error {
	net := m2m.GreatDuckIsland()
	specs, err := net.GenerateWorkload(m2m.WorkloadConfig{
		DestFraction:   0.2,
		SourcesPerDest: 20,
		Dispersion:     0.9,
		MaxHops:        4,
		Seed:           1,
	})
	if err != nil {
		return err
	}
	inst, err := net.NewInstance(specs, m2m.RouterReversePath)
	if err != nil {
		return err
	}
	p, err := m2m.Optimize(inst)
	if err != nil {
		return err
	}
	eng, err := sim.NewEngine(p, radio.DefaultModel(), sim.Options{MergeMessages: true})
	if err != nil {
		return err
	}
	readings := make(map[m2m.NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[m2m.NodeID(i)] = float64(i)
	}
	sup, err := m2m.NewSuppressor(p, net, m2m.PolicyMedium)
	if err != nil {
		return err
	}
	deltas := make(map[m2m.NodeID]float64)
	for i := 0; i < net.Len(); i += 10 {
		deltas[m2m.NodeID(i)] = 1.5
	}
	st := eng.NewRoundState()

	var benchErr error
	bench := func(name string, fn func() error) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					benchErr = fmt.Errorf("%s: %w", name, err)
					b.FailNow()
				}
			}
		}
	}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"optimize", func() error { _, err := m2m.Optimize(inst); return err }},
		{"execute_round", func() error { _, err := eng.Run(readings); return err }},
		{"execute_round_reuse", func() error { _, err := eng.RunInto(readings, st); return err }},
		{"suppressed_round", func() error { _, err := sup.Round(deltas); return err }},
		{"reoptimize", func() error { _, _, err := plan.Reoptimize(p, inst); return err }},
	}
	report := benchReport{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		r := testing.Benchmark(bench(c.name, c.fn))
		if benchErr != nil {
			return benchErr
		}
		report.Benchmarks = append(report.Benchmarks, benchRecord{
			Name:        c.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return writeBenchJSON(w, report)
}

func writeBenchJSON(w *os.File, report benchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

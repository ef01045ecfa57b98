// Command m2mbench regenerates the paper's evaluation figures and the
// ablation tables.
//
// Usage:
//
//	m2mbench -experiment fig3            # one figure as a text table
//	m2mbench -experiment all -csv        # everything, CSV format
//	m2mbench -list                       # enumerate experiments
//	m2mbench -experiment fig7 -seeds 5 -timesteps 20
//	m2mbench -experiment byzantine -json # one experiment's table as JSON
//	m2mbench -experiment fig3 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"m2m/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list       = flag.Bool("list", false, "list available experiments and exit")
		seeds      = flag.Int("seeds", 3, "number of random seeds to average over")
		timesteps  = flag.Int("timesteps", 10, "suppressed rounds per seed (fig7)")
		quick      = flag.Bool("quick", false, "reduced scale for smoke runs")
		jsonOut    = flag.Bool("json", false, "emit each experiment's table as JSON (the BENCH_*.json format)")
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

// simevo-bench regenerates the paper's evaluation artifacts (the Section 4
// profile and Tables 1-4) on the simulated cluster.
//
// Usage:
//
//	simevo-bench                 # all experiments, quick scale (iters/10)
//	simevo-bench -table 2       # only Table 2
//	simevo-bench -scale paper   # full paper-scale iteration counts
//	simevo-bench -scale tiny    # smoke scale
//	simevo-bench -cpuprofile cpu.prof -memprofile mem.prof
//	                            # profile the run
//
// Performance is measured elsewhere: bench/ (BENCHMARK.json) runs the
// end-to-end workloads, and the engine's bitwise and within-run ratio
// gates are tests (go test ./...).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"simevo/internal/experiments"
)

func main() {
	table := flag.String("table", "all", `experiment to run: "profile", "1".."4", "compare", or "all"`)
	scale := flag.String("scale", "quick", `experiment scale: "paper", "quick", or "tiny"`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	// run's failures return an exit code instead of calling os.Exit so the
	// deferred profile writers always flush.
	os.Exit(run(*table, *scale, *cpuprofile, *memprofile))
}

func run(table, scale, cpuprofile, memprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simevo-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "simevo-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simevo-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "simevo-bench: %v\n", err)
			}
		}()
	}

	var sc experiments.Scale
	switch scale {
	case "paper":
		sc = experiments.PaperScale()
	case "quick":
		sc = experiments.QuickScale()
	case "tiny":
		sc = experiments.TinyScale()
	default:
		fmt.Fprintf(os.Stderr, "simevo-bench: unknown scale %q\n", scale)
		return 2
	}

	var err error
	switch table {
	case "profile":
		err = experiments.Profile(sc, os.Stdout)
	case "1":
		err = experiments.Table1(sc, os.Stdout)
	case "2":
		err = experiments.Table2(sc, os.Stdout)
	case "3":
		err = experiments.Table3(sc, os.Stdout)
	case "4":
		err = experiments.Table4(sc, os.Stdout)
	case "compare":
		err = experiments.Comparison(sc, os.Stdout)
	case "all":
		err = experiments.All(sc, os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "simevo-bench: unknown table %q\n", table)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simevo-bench: %v\n", err)
		return 1
	}
	return 0
}

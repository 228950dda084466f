// simevo-run places one benchmark circuit with a chosen strategy and
// prints the resulting quality, costs, and runtime.
//
// Usage:
//
//	simevo-run -ckt s1196 -strategy serial -iters 350
//	simevo-run -ckt s3330 -strategy type2 -procs 4 -pattern random -objectives wpd
//	simevo-run -ckt s1238 -strategy type3 -procs 4 -retry 100
//
// Parallel strategies run on the in-process virtual-time cluster by
// default. With -cluster they run across real OS processes over TCP:
//
//	simevo-run -ckt s1196 -strategy type2 -procs 3 -cluster spawn
//	simevo-run -ckt s1196 -strategy type2 -procs 3 -cluster listen=:9090
//	simevo-run -join host:9090        (worker process; simevo-worker works too)
//
// "spawn" forks procs-1 local worker processes (re-executing this binary
// with -join); "listen=ADDR" waits for external workers to join. Same-seed
// runs produce identical placements on either transport.
//
// -metrics-addr starts a debug HTTP listener serving GET /metrics
// (Prometheus text exposition) and /debug/pprof/ for any mode, including
// -cluster masters and -join workers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"simevo"
	"simevo/internal/telemetry"
)

func main() {
	ckt := flag.String("ckt", "s1196", "benchmark circuit ("+strings.Join(simevo.BenchmarkNames(), ", ")+") or a .bench file path")
	aux := flag.String("aux", "", "Bookshelf/ISPD .aux benchmark to place instead of -ckt")
	strategy := flag.String("strategy", "serial", "serial | type1 | type2 | type3")
	objectives := flag.String("objectives", "wp", "wp (wirelength+power) | wpd (+delay) | wpc (+congestion) | wpdc (+delay+congestion)")
	iters := flag.Int("iters", 350, "SimE iterations")
	seed := flag.Uint64("seed", 2006, "random seed")
	procs := flag.Int("procs", 3, "cluster size for parallel strategies")
	pattern := flag.String("pattern", "fixed", "type2 row pattern: fixed | random")
	retry := flag.Int("retry", 100, "type3 retry threshold")
	syncExchange := flag.Bool("sync-exchange", false, "type3: wait for the store's news (the paper's blocking exchange) instead of picking it up asynchronously")
	diversify := flag.Bool("diversify", false, "type3: give each searcher a distinct allocation order")
	clustered := flag.Bool("clustered-start", false, "start from the connectivity-clustered placement instead of the uniform-random deal")
	ideal := flag.Bool("ideal-net", false, "use a zero-cost interconnect instead of fast Ethernet")
	cluster := flag.String("cluster", "", `run parallel ranks as real processes: "spawn" or "listen=ADDR"`)
	join := flag.String("join", "", "run as a cluster worker joining this coordinator address, then exit")
	token := flag.String("token", "", "shared-secret cluster join token (coordinator and workers must agree)")
	metricsAddr := flag.String("metrics-addr", "", "debug HTTP listen address for /metrics and /debug/pprof/ (empty disables)")
	flag.Parse()

	if *metricsAddr != "" {
		maddr, err := telemetry.ServeDebug(*metricsAddr)
		if err != nil {
			log.Fatalf("simevo-run: metrics listener: %v", err)
		}
		fmt.Printf("metrics listening on %s\n", maddr)
	}
	if *join != "" {
		runWorker(*join, *token)
		return
	}
	if *cluster != "" {
		runCluster(*cluster, *ckt, *strategy, *objectives, *iters, *seed, *procs, *pattern, *retry, *syncExchange, *token)
		return
	}

	var circuit *simevo.Circuit
	var err error
	if *aux != "" {
		circuit, err = simevo.LoadBookshelf(*aux)
	} else {
		circuit, err = loadCircuit(*ckt)
	}
	fatal(err)

	var obj simevo.Objectives
	switch *objectives {
	case "wp":
		obj = simevo.WirePower
	case "wpd":
		obj = simevo.WirePowerDelay
	case "wpc":
		obj = simevo.WirePowerCongest
	case "wpdc":
		obj = simevo.WirePowerDelayCongest
	default:
		fatal(fmt.Errorf("unknown objectives %q", *objectives))
	}

	cfg := simevo.DefaultConfig(obj)
	cfg.MaxIters = *iters
	cfg.Seed = *seed
	cfg.ClusteredStart = *clustered
	if rows := circuit.RowsHint(); rows > 0 {
		cfg.NumRows = rows
	}
	placer, err := simevo.NewPlacer(circuit, cfg)
	fatal(err)

	net := simevo.FastEthernet()
	if *ideal {
		net = simevo.IdealNet()
	}
	opt := simevo.ParallelOptions{Procs: *procs, Net: &net, Retry: *retry,
		SyncExchange: *syncExchange, Diversify: *diversify}
	if *pattern == "random" {
		opt.Pattern = simevo.RandomRows(*seed)
	} else {
		opt.Pattern = simevo.FixedRows()
	}

	fmt.Printf("circuit %s: %d cells, %d nets; objectives %s; %d iterations\n",
		circuit.Name(), circuit.NumCells(), circuit.NumNets(), obj, *iters)
	init := placer.InitialCosts()
	fmt.Printf("initial costs: wire %.0f  power %.1f  delay %.1f  congestion %.2f\n",
		init.Wire, init.Power, init.Delay, init.Congest)

	switch *strategy {
	case "serial":
		res, err := placer.RunSerial()
		fatal(err)
		report(res.BestMu, res.BestCosts, res.Runtime.Seconds())
		fmt.Printf("profile: %s\n", res.Profile)
		fmt.Printf("%s\n", simevo.EstimateCongestion(res.Best, 0))
		fmt.Printf("%s\n", simevo.ComputeRowStats(res.Best))
		for name, wl := range simevo.WirelengthByEstimator(res.Best) {
			fmt.Printf("wirelength[%s] = %.0f\n", name, wl)
		}
	case "type1":
		res, err := placer.RunTypeI(opt)
		fatal(err)
		report(res.BestMu, res.BestCosts, res.VirtualTime.Seconds())
	case "type2":
		res, err := placer.RunTypeII(opt)
		fatal(err)
		report(res.BestMu, res.BestCosts, res.VirtualTime.Seconds())
	case "type3":
		res, err := placer.RunTypeIII(opt)
		fatal(err)
		report(res.BestMu, res.BestCosts, res.VirtualTime.Seconds())
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
}

func loadCircuit(name string) (*simevo.Circuit, error) {
	for _, n := range simevo.BenchmarkNames() {
		if n == name {
			return simevo.Benchmark(name)
		}
	}
	return simevo.LoadBenchFile(name)
}

func report(mu float64, costs simevo.Costs, seconds float64) {
	fmt.Printf("best μ(s) = %.3f\n", mu)
	fmt.Printf("best costs: wire %.0f  power %.1f  delay %.1f  congestion %.2f\n",
		costs.Wire, costs.Power, costs.Delay, costs.Congest)
	fmt.Printf("runtime: %.2f s\n", seconds)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "simevo-run: %v\n", err)
		os.Exit(1)
	}
}

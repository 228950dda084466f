// Cluster: the Type II (domain decomposition) strategy on both transports.
//
// Part 1 sweeps the processor count on the simulated MPI cluster and
// reports the virtual-time speedup — a miniature of the paper's Table 2
// for one circuit. The cluster is simulated in virtual time: each rank's
// real compute is measured while it exclusively holds the CPU, and message
// passing is charged per a fast-Ethernet LogP model, so the reported times
// are what a wall clock would show on the paper's 8-node Pentium-4 fabric.
//
// Part 2 shows the slot patches: a Type II round ships only the cells
// that moved, as a bitmap over the slots plus the new occupant of each
// marked slot, from the master to the slaves and back, so the ranks send
// a fraction of what full placements every iteration would cost.
//
// Part 3 runs the same strategy over the real TCP transport — a
// coordinator hub plus two workers on localhost (in-process goroutines
// here; `simevo-worker` processes in production, see README "Cluster") —
// and checks the result matches the simulated run exactly.
//
// Parts 2-3 use module-internal packages; outside this module the same
// functionality is reachable through the simevo-run -cluster, simevo-serve
// -cluster-listen, and simevo-worker binaries.
package main

import (
	"context"
	"fmt"
	"log"

	"simevo"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/parallel"
	"simevo/internal/service/jobs"
	"simevo/internal/transport"
)

func main() {
	ckt, err := simevo.Benchmark("s1494")
	if err != nil {
		log.Fatal(err)
	}

	cfg := simevo.DefaultConfig(simevo.WirePower)
	cfg.MaxIters = 300
	cfg.Seed = 2006

	placer, err := simevo.NewPlacer(ckt, cfg)
	if err != nil {
		log.Fatal(err)
	}

	serial, err := placer.RunSerial()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: serial SimE  μ=%.3f  time=%.2fs\n\n",
		ckt.Name(), serial.BestMu, serial.Runtime.Seconds())

	net := simevo.FastEthernet()
	fmt.Println("p   pattern  μ(s)    time(s)  speedup  quality%")
	for _, pattern := range []simevo.RowPattern{simevo.FixedRows(), simevo.RandomRows(2006)} {
		for p := 2; p <= 5; p++ {
			// The paper adds iterations as processors are added, because
			// the decomposed search needs more of them to converge.
			cfg2 := cfg
			cfg2.MaxIters = 350 + 50*(p-2)
			placer2, err := simevo.NewPlacer(ckt, cfg2)
			if err != nil {
				log.Fatal(err)
			}
			res, err := placer2.RunTypeII(simevo.ParallelOptions{
				Procs:    p,
				Net:      &net,
				Pattern:  pattern,
				TargetMu: serial.BestMu,
			})
			if err != nil {
				log.Fatal(err)
			}
			t := res.VirtualTime
			if res.ReachedTarget {
				t = res.TimeToTarget
			}
			fmt.Printf("%d   %-7s  %.3f  %7.2f  %6.2fx   %5.1f%%\n",
				p, pattern.Name(), res.BestMu, t.Seconds(),
				serial.Runtime.Seconds()/t.Seconds(),
				100*res.BestMu/serial.BestMu)
		}
	}

	patchDemo()
	tcpTransportDemo()
}

// patchDemo compares the Type II traffic on the simulated cluster with
// what full placements would have cost: the master's broadcast to every
// slave, and each slave's reply.
func patchDemo() {
	fmt.Println("\nType II round bytes (s1494, p=3, 120 iterations):")
	const procs = 3
	prob := exampleProblem()
	res, err := parallel.RunTypeII(prob, parallel.Options{Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	full := prob.Cfg.MaxIters * len(res.Best.Encode())
	for r, st := range res.RankStats {
		fullB := full
		if r == 0 {
			fullB *= procs - 1 // one broadcast frame per slave
		}
		fmt.Printf("  rank %d: %7d bytes sent, %3.0f%% of full placements (%d bytes)\n",
			r, st.BytesSent, 100*float64(st.BytesSent)/float64(fullB), fullB)
	}
	fmt.Printf("  μ %.4f\n", res.BestMu)
}

// tcpTransportDemo forms a real TCP cluster on localhost — a coordinator
// hub and two workers — and runs the same Type II job over it.
func tcpTransportDemo() {
	fmt.Println("\nType II over the TCP transport (localhost, 3 ranks):")
	hub, err := transport.Listen("127.0.0.1:0", "")
	if err != nil {
		log.Fatal(err)
	}
	defer hub.Close()
	for i := 0; i < 2; i++ {
		w, err := transport.Join(context.Background(), hub.Addr().String(), "")
		if err != nil {
			log.Fatal(err)
		}
		go w.Serve(context.Background(), func(t transport.Transport) error {
			return jobs.ServeRank(context.Background(), t)
		})
	}
	group, err := hub.Acquire(context.Background(), 2)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := jobs.Spec{
		Circuit: "s1494", Strategy: "type2", Procs: 3,
		MaxIters: 120, Seed: 2006, Transport: jobs.TransportTCP,
	}.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	res, err := jobs.RunSpecOn(context.Background(), group, spec, nil)
	group.Close()
	if err != nil {
		log.Fatal(err)
	}
	sim := func() *parallel.Result {
		prob := exampleProblem()
		out, err := parallel.RunTypeII(prob, parallel.Options{Procs: 3})
		if err != nil {
			log.Fatal(err)
		}
		return out
	}()
	fmt.Printf("  tcp: μ=%.4f in %.2fs wall;  simulated same-seed μ=%.4f (identical: %v)\n",
		res.BestMu, res.VirtualTimeMS/1000, sim.BestMu, res.BestMu == sim.BestMu)
}

// exampleProblem builds the s1494 problem exactly as the service does, so
// the simulated and TCP runs share one trajectory.
func exampleProblem() *core.Problem {
	ckt, err := gen.Benchmark("s1494")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = 120
	cfg.Seed = 2006
	cfg.DisableMuTrace = true
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return prob
}

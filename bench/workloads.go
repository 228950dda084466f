package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/parallel"
	"simevo/internal/service/api"
	"simevo/internal/service/jobs"
	"simevo/internal/transport"
)

// Workload sizes. Each repetition is a fixed iteration budget: the time to
// reach a fixed μ varies several-fold between seeds, so a run's median of
// it would not repeat across seeds; the μ a budget reaches (best_mu) and
// the time it takes (time_to_result_s) do. Smoke sizes keep the test fast.
const (
	serialIters, serialSmokeIters   = 200, 3
	scaleCells, scaleSmokeCells     = 20_000, 2_000
	scaleIters                      = 4
	typeIIIters, typeIISmokeIters   = 250, 3
	typeIIIIters, typeIIISmokeIters = 300, 6
	serviceJobs, serviceSmokeJobs   = 60, 10
	serviceIters, serviceSmokeIters = 300, 10
	serviceClients                  = 2 // closed loop, at most nproc connections
)

// serialScan is the Config.AllocWorkers of every engine the benchmark
// configures itself. On the 2-CPU development host the default fan-out of
// the allocation scan over two pool workers made 200 s3330 wpd iterations
// 1.6x slower (2.0-2.6 s against 1.43-1.51 s) and its run-to-run spread
// 15% against 3%: a benchmark that noisy could not gate anything. Jobs
// submitted through the service keep the service's own configuration.
const serialScan = 1

// workloads lists the benchmark's workloads in run order. Why each was
// chosen is recorded in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		Name:          "serial-s3330-wpd",
		Target:        0.55,
		Deterministic: true,
		rep: engineRep(engineSpec{
			setups: 5, iters: serialIters, smokeIters: serialSmokeIters,
			circuit: func(bool, uint64) (*netlist.Circuit, error) { return gen.Benchmark("s3330") },
			config: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(fuzzy.WirePowerDelay)
				cfg.Seed = seed
				return cfg
			},
		}),
	},
	{
		Name:          "scale-20k-wpc",
		Target:        0.2,
		Deterministic: true,
		rep: engineRep(engineSpec{
			setups: 2, iters: scaleIters, smokeIters: scaleIters,
			circuit: func(smoke bool, seed uint64) (*netlist.Circuit, error) {
				return gen.Generate(gen.ScaledParams("scale", pick(smoke, scaleCells, scaleSmokeCells), seed))
			},
			config: func(uint64) core.Config {
				// The seed picks the circuit; the search seed stays fixed,
				// which keeps μ at the budget steady across circuits.
				cfg := core.DefaultConfig(fuzzy.WirePowerCongest)
				cfg.Seed = 2006
				cfg.ClusteredStart = true
				cfg.CongestBins = 64
				return cfg
			},
		}),
	},
	{
		Name:          "typeii-s3330-wpd-p3",
		Target:        0.5,
		Deterministic: true,
		rep:           typeIIRep,
	},
	{
		Name:   "typeiii-s3330-wp-p4",
		Target: 0.6,
		rep:    typeIIIRep,
	},
	{
		Name:          "service-s1196-mix",
		Target:        0.35,
		Deterministic: true,
		rep:           serviceRep,
	},
}

func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// failOp records an operation that could not run.
func (r *runner) failOp(seed uint64, what string, err error) {
	r.ops = append(r.ops, opResult{Seed: seed, Error: what + ": " + err.Error()})
}

// engineSpec describes a workload that runs one serial SimE engine per
// repetition.
type engineSpec struct {
	setups            int // set-ups per repetition; the last one is run
	iters, smokeIters int
	circuit           func(smoke bool, seed uint64) (*netlist.Circuit, error)
	config            func(seed uint64) core.Config
}

func engineRep(s engineSpec) func(*runner, int) {
	return func(r *runner, i int) {
		seed := repSeed(r.seed, i)
		var prob *core.Problem
		var eng *core.Engine
		for k := 0; k < s.setups; k++ {
			r.gc() // one set-up's garbage at a time
			start := time.Now()
			sp := r.begin("setup")
			id := r.beginUnder("gen", sp)
			ckt, err := s.circuit(r.smoke, seed)
			r.end(id)
			if err != nil {
				r.end(sp)
				r.failOp(seed, "generating the circuit", err)
				return
			}
			cfg := s.config(seed)
			cfg.MaxIters = pick(r.smoke, s.iters, s.smokeIters)
			cfg.AllocWorkers = serialScan
			id = r.beginUnder("core.problem", sp)
			prob, err = core.NewProblem(ckt, cfg)
			r.end(id)
			if err != nil {
				r.end(sp)
				r.failOp(seed, "building the problem", err)
				return
			}
			id = r.beginUnder("core.engine_new", sp)
			eng = prob.NewEngine(0)
			r.end(id)
			r.end(sp)
			r.setups = append(r.setups, time.Since(start).Seconds())
		}
		r.afterSetup()

		op := opResult{Seed: seed}
		start := time.Now()
		var res *core.Result
		if r.traced() {
			res = r.drive(eng)
		} else {
			res = eng.Run()
			op.VirtualS = res.Profile.Total().Seconds()
		}
		op.WallS = time.Since(start).Seconds()
		op.Mu = res.BestMu
		r.gc()
		r.checkBest(&op, prob, res.Best, res.BestCosts, res.BestMu)
		r.ops = append(r.ops, op)
		if r.traced() {
			d := &r.layer
			d.ops++
			d.opIters = append(d.opIters, float64(res.Iters))
			d.itersToTarget = append(d.itersToTarget, itersToTarget(res.MuTrace, r.wl.Target))
			for name, t := range eng.CostPhases() {
				d.costNs[name] += float64(t)
			}
			d.costIters += res.Iters
		}
	}
}

// drive runs the engine's loop through its public calls, one span per
// operator group, reproducing Engine.Run for a fixed iteration budget:
// EvaluateCosts + ComputeGoodness over the movable cells, then
// SelectAndAllocate, and a last evaluation of the final allocation.
func (r *runner) drive(eng *core.Engine) *core.Result {
	run := r.begin("core.run")
	prob := eng.Problem()
	cells := prob.Ckt.Movable()
	var goods []float64
	d := &r.layer
	for eng.Iter() < prob.Cfg.MaxIters {
		t0 := time.Now()
		id := r.beginUnder("core.evaluate", run)
		eng.EvaluateCosts()
		goods = eng.ComputeGoodness(cells, goods)
		r.end(id)
		t1 := time.Now()
		id = r.beginUnder("core.select_alloc", run)
		st := eng.SelectAndAllocate()
		r.end(id)
		d.evalNs += float64(t1.Sub(t0))
		d.iterMs = append(d.iterMs, float64(time.Since(t0))/1e6)
		d.selected = append(d.selected, float64(st.Selected))
		d.drivenIters++
	}
	t0 := time.Now()
	id := r.beginUnder("core.evaluate", run)
	eng.EvaluateCosts()
	r.end(id)
	d.evalNs += float64(time.Since(t0))
	d.ctr.add(r.end(run))
	return eng.Result()
}

// addSim accounts one simulated-cluster run.
func (r *runner) addSim(res *parallel.Result) {
	d := &r.layer
	d.simRuns++
	d.simIters += float64(res.Iters)
	for i, st := range res.RankStats {
		d.simCompute += st.Compute
		d.simComm += st.Comm
		d.simClock += st.Clock
		d.simBytes += float64(st.BytesSent)
		d.simMsgs += float64(st.MsgsSent)
		if i == 0 {
			d.simMasterComm += st.Comm
			d.simMasterClock += st.Clock
		}
	}
}

// selectionProbe collects |S| from a strategy's progress callback.
type selectionProbe struct {
	mu  sync.Mutex
	sel []float64
}

func (p *selectionProbe) progress(st core.IterStats) {
	p.mu.Lock()
	p.sel = append(p.sel, float64(st.Selected))
	p.mu.Unlock()
}

// cluster is a loopback TCP cluster: a hub and in-process workers serving
// one rank function, with a group of them acquired for one run.
type cluster struct {
	hub   *transport.Hub
	group *transport.Group
	wg    sync.WaitGroup
}

func startCluster(workers int, rank func(transport.Transport) error) (*cluster, error) {
	hub, err := transport.Listen("127.0.0.1:0", "")
	if err != nil {
		return nil, err
	}
	c := &cluster{hub: hub}
	for i := 0; i < workers; i++ {
		w, err := transport.Join(context.Background(), hub.Addr().String(), "")
		if err != nil {
			c.close()
			return nil, err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			// A worker's failure reaches rank 0 as a lost rank; Serve
			// itself returns nil once the hub dismisses the worker.
			_ = w.Serve(context.Background(), rank)
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.group, err = hub.Acquire(ctx, workers); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close returns the workers to the hub, shuts the hub down (dismissing
// them), and waits for every worker goroutine to exit.
func (c *cluster) close() {
	if c.group != nil {
		c.group.Release()
	}
	c.hub.Close()
	c.wg.Wait()
}

// jobProblem builds the problem a job spec implies, as the job service
// does: the default configuration of the spec's objectives with its budget
// and seed.
func jobProblem(ckt *netlist.Circuit, obj fuzzy.Objectives, spec jobs.Spec) (*core.Problem, error) {
	cfg := core.DefaultConfig(obj)
	cfg.MaxIters = spec.MaxIters
	cfg.Seed = spec.Seed
	return core.NewProblem(ckt, cfg)
}

// typeIIProcs is the Type II cluster size: rank 0 plus two workers, so the
// TCP leg holds two client connections, one per CPU of the host. Each
// repetition sets the cluster up typeIISetups times.
const typeIIProcs, typeIISetups = 3, 4

// typeIIRep runs one Type II problem twice: on the simulated cluster (the
// paper's virtual-time makespan) and over loopback TCP, rank 0 here and
// the other ranks on in-process workers (the wall clock). The two runs
// must agree bitwise.
func typeIIRep(r *runner, i int) {
	seed := repSeed(r.seed, i)
	r.gc()
	// Fault tolerant, as the job service runs cluster jobs; a fault-free
	// tolerant run follows the simulated trajectory bitwise.
	tcpOpt := parallel.Options{Procs: typeIIProcs, Tolerate: true}
	var prob *core.Problem
	var cl *cluster
	for k := 0; k < typeIISetups; k++ {
		if cl != nil {
			id := r.begin("transport.teardown")
			cl.close()
			r.end(id)
		}
		start := time.Now()
		sp := r.begin("setup")
		id := r.beginUnder("gen", sp)
		ckt, err := gen.Benchmark("s3330")
		r.end(id)
		if err == nil {
			cfg := core.DefaultConfig(fuzzy.WirePowerDelay)
			cfg.MaxIters = pick(r.smoke, typeIIIters, typeIISmokeIters)
			cfg.Seed = seed
			cfg.AllocWorkers = serialScan
			id = r.beginUnder("core.problem", sp)
			prob, err = core.NewProblem(ckt, cfg)
			r.end(id)
		}
		if err == nil {
			// Only the last set-up runs the problem; the workers of the
			// others return at once, so their groups release without a run.
			rank := func(transport.Transport) error { return nil }
			if k == typeIISetups-1 {
				p := prob
				rank = func(t transport.Transport) error {
					_, err := parallel.TypeIIRank(t, p, tcpOpt)
					return err
				}
			}
			id = r.beginUnder("transport.setup", sp)
			cl, err = startCluster(typeIIProcs-1, rank)
			r.end(id)
		}
		r.end(sp)
		if err != nil {
			r.failOp(seed, "setting up", err)
			return
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	r.afterSetup()

	op := opResult{Seed: seed}
	var probe selectionProbe
	id := r.begin("parallel.run_typeii")
	sim, simErr := parallel.RunTypeII(prob, parallel.Options{Procs: typeIIProcs, Progress: probe.progress})
	r.layer.ctr.add(r.end(id))

	id = r.begin("transport.run_typeii")
	t0 := time.Now()
	var tcp *parallel.Result
	tcpErr := transport.Run(cl.group, func(t transport.Transport) error {
		var err error
		tcp, err = parallel.TypeIIRank(t, prob, tcpOpt)
		return err
	})
	op.WallS = time.Since(t0).Seconds()
	r.layer.ctr.add(r.end(id))
	id = r.begin("transport.teardown")
	cl.close()
	r.end(id)
	r.gc()

	switch {
	case simErr != nil:
		op.fail("simulated run: " + simErr.Error())
	case tcpErr != nil:
		op.fail("tcp run: " + tcpErr.Error())
	default:
		op.Mu, op.VirtualS = sim.BestMu, sim.VirtualTime.Seconds()
		r.checkBest(&op, prob, sim.Best, sim.BestCosts, sim.BestMu)
		switch {
		case len(tcp.FailedRanks) > 0:
			op.fail(fmt.Sprintf("tcp run lost ranks %v", tcp.FailedRanks))
		case tcp.BestMu != sim.BestMu || tcp.BestCosts != sim.BestCosts:
			op.fail(fmt.Sprintf("tcp μ %v costs %+v != simulated μ %v costs %+v", tcp.BestMu, tcp.BestCosts, sim.BestMu, sim.BestCosts))
		case tcp.Best == nil || sim.Best == nil || tcp.Best.Fingerprint() != sim.Best.Fingerprint():
			op.fail("tcp best placement differs from the simulated run's")
		}
	}
	r.ops = append(r.ops, op)
	if r.traced() && op.Error == "" {
		d := &r.layer
		d.ops++
		r.addSim(sim)
		d.selected = append(d.selected, probe.sel...)
		d.opIters = append(d.opIters, float64(sim.Iters))
		d.itersToTarget = append(d.itersToTarget, itersToTarget(sim.MuTrace, r.wl.Target))
		for _, st := range tcp.RankStats {
			d.tcpBytes += float64(st.BytesSent)
			d.tcpMsgs += float64(st.MsgsSent)
		}
		d.tcpIters += float64(tcp.Iters)
		d.wallOverVirtual = append(d.wallOverVirtual, op.WallS/op.VirtualS)
	}
}

// typeIIIRep runs the asynchronous Type III strategy on the simulated
// cluster. Compute is measured, so exchange timing — and the result —
// varies between runs of one seed.
func typeIIIRep(r *runner, i int) {
	seed := repSeed(r.seed, i)
	r.gc()
	var prob *core.Problem
	for k := 0; k < 5; k++ {
		start := time.Now()
		sp := r.begin("setup")
		id := r.beginUnder("gen", sp)
		ckt, err := gen.Benchmark("s3330")
		r.end(id)
		if err == nil {
			cfg := core.DefaultConfig(fuzzy.WirePower)
			cfg.MaxIters = pick(r.smoke, typeIIIIters, typeIIISmokeIters)
			cfg.Seed = seed
			cfg.AllocWorkers = serialScan
			id = r.beginUnder("core.problem", sp)
			prob, err = core.NewProblem(ckt, cfg)
			r.end(id)
		}
		r.end(sp)
		if err != nil {
			r.failOp(seed, "setting up", err)
			return
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	r.afterSetup()

	op := opResult{Seed: seed}
	var probe selectionProbe
	id := r.begin("parallel.run_typeiii")
	t0 := time.Now()
	res, err := parallel.RunTypeIII(prob, parallel.Options{Procs: 4, Progress: probe.progress})
	op.WallS = time.Since(t0).Seconds()
	r.layer.ctr.add(r.end(id))
	if err != nil {
		op.fail(err.Error())
		r.ops = append(r.ops, op)
		return
	}
	op.Mu, op.VirtualS = res.BestMu, res.VirtualTime.Seconds()
	r.gc()
	r.checkBest(&op, prob, res.Best, res.BestCosts, res.BestMu)
	r.ops = append(r.ops, op)
	if r.traced() {
		d := &r.layer
		d.ops++
		r.addSim(res)
		d.selected = append(d.selected, probe.sel...)
		d.opIters = append(d.opIters, float64(res.Iters))
		if ex := res.Exchange; ex != nil {
			d.exRuns++
			d.exPosted += float64(ex.Posted)
			d.exAdopted += float64(ex.Adopted)
			d.exRejected += float64(ex.Rejected)
			d.exRestore += float64(ex.Restores)
			d.exEpoch += float64(ex.StoreEpoch)
			for _, ns := range ex.RoundNs {
				d.exRoundNs = append(d.exRoundNs, float64(ns))
			}
		}
	}
}

// jobRun is one client request: the spec, the client-side latency from
// POST to the terminal view, and that view.
type jobRun struct {
	spec     jobs.Spec
	repeatOf int // index of the repeated job in the client's list, or -1
	latency  time.Duration
	view     jobs.View
	err      error
}

// serviceRep runs one round of jobs against a fresh job manager behind the
// HTTP API. Each of the closed-loop clients submits a job, follows its SSE
// stream to the terminal event, and only then submits the next. In every
// five submissions of a client, three are serial and one is Type II on the
// simulated cluster (p=3), all new; the fifth repeats the client's own
// first job of the five, which has finished, so it must hit the cache.
func serviceRep(r *runner, i int) {
	r.gc()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients}}
	var mgr *jobs.Manager
	var srv *httptest.Server
	// startService sets the service up; set-up ends when the service
	// answers its first request.
	startService := func() (time.Duration, error) {
		start := time.Now()
		sp := r.begin("setup")
		id := r.beginUnder("service.setup", sp)
		mgr = jobs.NewManager(jobs.Options{Workers: serviceClients})
		srv = httptest.NewServer(api.New(mgr).Handler())
		err := get(hc, srv.URL+"/healthz")
		r.end(id)
		r.end(sp)
		return time.Since(start), err
	}
	teardown := func() {
		id := r.begin("service.teardown")
		hc.CloseIdleConnections()
		srv.Close()
		mgr.Close()
		r.end(id)
	}
	if _, err := startService(); err != nil {
		teardown()
		r.failOp(0, "starting the service", err)
		return
	}
	r.afterSetup()

	perClient := pick(r.smoke, serviceJobs, serviceSmokeJobs) / serviceClients
	runs := make([][]jobRun, serviceClients)
	round := r.begin("service.round")
	start := time.Now()
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c] = r.serviceClient(hc, srv.URL, repSeed(repSeed(r.seed, i), c), perClient, round)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	r.layer.ctr.add(r.end(round))
	teardown()

	// Set-up is timed after the round, in a warm process: the first set-ups
	// of a process run the HTTP and JSON paths cold and take about twice as
	// long, which would split a run's samples into two levels.
	for k := 0; k < 30; k++ {
		d, err := startService()
		teardown()
		if err != nil {
			r.failOp(0, "starting the service", err)
			return
		}
		r.setups = append(r.setups, d.Seconds())
	}

	// Checks run after the round, outside the measured interval.
	r.gc()
	id := r.begin("gen")
	ckt, err := gen.Benchmark("s1196")
	r.end(id)
	if err != nil {
		r.failOp(0, "generating the circuit", err)
		return
	}
	d := &r.layer
	for _, list := range runs {
		for _, jr := range list {
			op := r.checkJob(ckt, jr, list)
			r.ops = append(r.ops, op)
			if !r.traced() || op.Error != "" {
				continue
			}
			v := jr.view
			d.jobs++
			d.latencyMs = append(d.latencyMs, float64(jr.latency)/1e6)
			d.overheadMs = append(d.overheadMs, float64(jr.latency-v.Finished.Sub(v.Created))/1e6)
			if op.Cached {
				d.cacheHits++
				continue
			}
			d.ops++
			d.opIters = append(d.opIters, float64(v.Result.Iters))
			if v.Started != nil {
				d.queueWaitMs = append(d.queueWaitMs, float64(v.Started.Sub(v.Created))/1e6)
				d.runMs = append(d.runMs, float64(v.Finished.Sub(*v.Started))/1e6)
			}
		}
	}
	if r.traced() {
		d.serviceWall += wall
	}
}

// serviceClient is one closed-loop client: n jobs, one at a time.
func (r *runner) serviceClient(hc *http.Client, url string, seed uint64, n, round int) []jobRun {
	var out []jobRun
	for k := 0; k < n; k++ {
		jr := jobRun{repeatOf: -1}
		switch k % 5 {
		case 4:
			jr.repeatOf = k - 4
			jr.spec = out[k-4].spec
		case 1:
			jr.spec = jobs.Spec{Strategy: jobs.StrategyTypeII, Procs: 3}
		default:
			jr.spec = jobs.Spec{Strategy: jobs.StrategySerial}
		}
		if jr.repeatOf < 0 {
			jr.spec.Circuit = "s1196"
			jr.spec.MaxIters = pick(r.smoke, serviceIters, serviceSmokeIters)
			jr.spec.Seed = repSeed(seed, k)
			jr.spec.IncludePlacement = true
		}
		id := r.beginUnder("service.job", round)
		t0 := time.Now()
		jr.view, jr.err = submitAndFollow(hc, url, jr.spec)
		jr.latency = time.Since(t0)
		r.end(id)
		out = append(out, jr)
	}
	return out
}

// checkJob verifies one finished job and converts it to an operation.
func (r *runner) checkJob(ckt *netlist.Circuit, jr jobRun, list []jobRun) opResult {
	op := opResult{Seed: jr.spec.Seed, WallS: jr.latency.Seconds()}
	v := jr.view
	switch {
	case jr.err != nil:
		op.fail(jr.err.Error())
		return op
	case v.State != jobs.StateDone || v.Result == nil:
		op.fail(fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error))
		return op
	}
	res := v.Result
	op.Mu, op.Cached = res.BestMu, res.Cached
	if jr.repeatOf >= 0 {
		first := list[jr.repeatOf].view.Result
		switch {
		case !res.Cached:
			op.fail("repeat of a finished job missed the cache")
		case first == nil || res.BestMu != first.BestMu || res.Wire != first.Wire ||
			res.Power != first.Power || res.Iters != first.Iters || !equalRows(res.Placement, first.Placement):
			op.fail("cache hit differs from the first run's result")
		}
		return op
	}
	op.VirtualS = res.RuntimeMS / 1e3
	if res.VirtualTimeMS > 0 {
		op.VirtualS = res.VirtualTimeMS / 1e3
	}
	prob, err := jobProblem(ckt, fuzzy.WirePower, jr.spec)
	if err != nil {
		op.fail("building the problem: " + err.Error())
		return op
	}
	place, err := placementFromRows(ckt, res.Placement)
	if err != nil {
		op.fail("job placement: " + err.Error())
		return op
	}
	costs := fuzzy.Costs{Wire: res.Wire, Power: res.Power, Delay: res.Delay, Congest: res.Congest}
	r.checkBest(&op, prob, place, costs, res.BestMu)
	return op
}

func equalRows(a, b [][]string) bool { return slices.EqualFunc(a, b, slices.Equal[[]string]) }

// get fetches a URL and checks for 200 OK.
func get(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// submitAndFollow posts a job and, unless the answer is already terminal
// (a cache hit), follows the job's SSE stream to its terminal event.
func submitAndFollow(hc *http.Client, url string, spec jobs.Spec) (jobs.View, error) {
	var view jobs.View
	body, err := json.Marshal(spec)
	if err != nil {
		return view, err
	}
	resp, err := hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return view, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil || view.State.Terminal() {
		return view, err
	}

	resp, err = hc.Get(url + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "progress":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &view)
			return view, err
		}
	}
	if err := sc.Err(); err != nil {
		return view, err
	}
	return view, fmt.Errorf("stream of job %s ended without a terminal event", view.ID)
}

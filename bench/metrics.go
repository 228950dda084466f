package main

import (
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the smoke test holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndDefs are the metrics a user of the placer sees, reported by every
// workload from its untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"time_to_result_s", "s"},
	{"virtual_s", "s"},
	{"best_mu", "mu"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs are the single-layer metrics of the traced run. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0.
var perLayerDefs = []metricDef{
	{"gen.ms", "ms"},
	{"core.problem_ms", "ms"},
	{"core.engine_new_ms", "ms"},
	{"transport.setup_ms", "ms"},
	{"service.setup_ms", "ms"},

	{"core.iter_ms.p50", "ms"},
	{"core.iter_ms.p90", "ms"},
	{"core.evaluate_ms_per_iter", "ms"},
	{"core.select_ms_per_iter", "ms"},
	{"core.alloc_ms_per_iter", "ms"},
	{"core.alloc_prep_ms_per_iter", "ms"},
	{"core.alloc_scan_ms_per_iter", "ms"},
	{"core.alloc_commit_ms_per_iter", "ms"},
	{"core.alloc_share", "fraction"},
	{"core.iters", "count"},
	{"core.iters_to_target", "count"},
	{"core.selected_per_iter", "count"},
	{"core.full_rebuilds", "count"},
	{"core.incremental_evals", "count"},

	{"wire.dirty_nets_per_eval", "count"},
	{"wire.goodness_hit_frac", "fraction"},
	{"wire.scan_candidates_per_iter", "count"},
	{"wire.scan_skipped_frac", "fraction"},
	{"wire.scan_pruned_bbox_frac", "fraction"},
	{"wire.scan_pruned_suffix_frac", "fraction"},
	{"wire.scan_bailed_exact_frac", "fraction"},
	{"wire.scan_scored_frac", "fraction"},
	{"wire.scan_rows_visited_per_iter", "count"},

	{"cost.wire_ms_per_iter", "ms"},
	{"cost.power_ms_per_iter", "ms"},
	{"cost.delay_ms_per_iter", "ms"},
	{"cost.congestion_ms_per_iter", "ms"},
	{"cost.dirty_frac", "fraction"},
	{"timing.update_frac", "fraction"},
	{"timing.cone_cells_per_update", "count"},
	{"congest.bin_updates_per_iter", "count"},
	{"congest.rebuilds", "count"},

	{"mpi.compute_s", "s"},
	{"mpi.comm_frac", "fraction"},
	{"parallel.bytes_per_iter", "B"},
	{"parallel.msgs_per_iter", "count"},
	{"parallel.master_comm_frac", "fraction"},

	{"exchange.posted", "count"},
	{"exchange.adopted", "count"},
	{"exchange.rejected", "count"},
	{"exchange.restores", "count"},
	{"exchange.store_epoch", "count"},
	{"exchange.adopt_frac", "fraction"},
	{"exchange.round_ms.p50", "ms"},

	{"transport.bytes_per_iter", "B"},
	{"transport.msgs_per_iter", "count"},
	{"transport.wall_over_virtual", "ratio"},

	{"jobs.queue_wait_ms.p50", "ms"},
	{"jobs.queue_wait_ms.p80", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.cache_hit_frac", "fraction"},
	{"api.overhead_ms.p50", "ms"},
	{"service.latency_ms.p80", "ms"},
	{"service.jobs_per_s", "1/s"},

	{"runtime.alloc_mb_per_iter", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_inuse_mb_after_setup", "MB"},

	{"trace.overhead_frac", "fraction"},
	{"trace.unaccounted_frac", "fraction"},
}

// layerData accumulates what the traced operations of one run observed,
// layer by layer. Counts are summed over operations; the per-layer metrics
// divide them by operations or iterations at the end.
type layerData struct {
	ops int
	ctr counters // process-counter deltas summed over the run calls

	// Engines the benchmark drives itself (serial and scale): evaluate
	// time comes from its own spans, per-objective time from CostPhases.
	drivenIters int
	evalNs      float64
	iterMs      []float64
	costNs      map[string]float64
	costIters   int

	selected      []float64 // |S| per iteration, where IterStats are visible
	opIters       []float64 // iterations per operation
	itersToTarget []float64 // evaluations until best μ reached the target
	heapMB        []float64 // heap in use right after set-up

	// Simulated cluster legs (Result.RankStats).
	simRuns                       int
	simCompute, simComm, simClock time.Duration
	simBytes, simMsgs, simIters   float64
	simMasterComm, simMasterClock time.Duration

	// Type III exchange (Result.Exchange).
	exRuns                                     int
	exPosted, exAdopted, exRejected, exRestore float64
	exEpoch                                    float64
	exRoundNs                                  []float64

	// TCP leg (transport.Group.RankStats).
	tcpBytes, tcpMsgs, tcpIters float64
	wallOverVirtual             []float64

	// Service (jobs.View timestamps and client latencies).
	queueWaitMs, runMs, overheadMs, latencyMs []float64
	jobs, cacheHits                           int
	serviceWall                               time.Duration
}

// endToEndMetrics derives the end-to-end metrics (all but peak RSS, which
// the parent process measures) from the raw values of a run.
func endToEndMetrics(rec *record) map[string]metric {
	var wall, virt, mu []float64
	for _, op := range rec.Ops {
		wall = append(wall, op.WallS)
		if op.Cached {
			continue // a cache hit repeats an earlier job's run and μ
		}
		if op.VirtualS > 0 {
			virt = append(virt, op.VirtualS)
		}
		mu = append(mu, op.Mu)
	}
	v := map[string]float64{
		"setup_s":          median(rec.Setups),
		"time_to_result_s": median(wall),
		"virtual_s":        median(virt),
		"best_mu":          median(mu),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, def := range endToEndDefs {
		if x, ok := v[def.Name]; ok {
			out[def.Name] = metric{x, def.Unit}
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(d *layerData, spans []span, untraced, traced []float64) map[string]metric {
	c := &d.ctr
	iters := c[cIterations]
	perIter := func(v float64) float64 { return ratio(v, iters) }
	nsPerIter := func(ns float64) float64 { return ratio(ns, iters) / 1e6 }
	perOp := func(v float64) float64 { return ratio(v, float64(d.ops)) }

	evalNs := c[cEvalNs]
	if d.drivenIters > 0 {
		// A loop the benchmark drives calls EvaluateCosts and
		// ComputeGoodness itself, outside Engine.Step's phase timer.
		evalNs = d.evalNs
	}
	phaseNs := evalNs + c[cSelectNs] + c[cAllocNs]
	candidates := c[cScanVacancies] + c[cScanSkipped]
	costMs := func(name string) float64 {
		return ratio(d.costNs[name], float64(d.costIters)) / 1e6
	}
	byName := spanDurations(spans)

	v := map[string]float64{
		"gen.ms":                        median(byName["gen"]),
		"core.problem_ms":               median(byName["core.problem"]),
		"core.engine_new_ms":            median(byName["core.engine_new"]),
		"transport.setup_ms":            median(byName["transport.setup"]),
		"service.setup_ms":              median(byName["service.setup"]),
		"core.iter_ms.p50":              quantile(d.iterMs, 0.5),
		"core.iter_ms.p90":              quantile(d.iterMs, 0.9),
		"core.evaluate_ms_per_iter":     nsPerIter(evalNs),
		"core.select_ms_per_iter":       nsPerIter(c[cSelectNs]),
		"core.alloc_ms_per_iter":        nsPerIter(c[cAllocNs]),
		"core.alloc_prep_ms_per_iter":   nsPerIter(c[cAllocPrepNs]),
		"core.alloc_scan_ms_per_iter":   nsPerIter(c[cAllocScanNs]),
		"core.alloc_commit_ms_per_iter": nsPerIter(c[cAllocCommitNs]),
		"core.alloc_share":              ratio(c[cAllocNs], phaseNs),
		"core.iters":                    median(d.opIters),
		"core.iters_to_target":          median(d.itersToTarget),
		"core.selected_per_iter":        mean(d.selected),
		"core.full_rebuilds":            perOp(c[cEvalsRebuild] + c[cEvalsReference]),
		"core.incremental_evals":        perOp(c[cEvalsIncremental]),

		"wire.dirty_nets_per_eval":        ratio(c[cDirtyNets], c[cEvalsIncremental]),
		"wire.goodness_hit_frac":          ratio(c[cGoodnessHits], c[cGoodnessHits]+c[cGoodnessMisses]),
		"wire.scan_candidates_per_iter":   perIter(candidates),
		"wire.scan_skipped_frac":          ratio(c[cScanSkipped], candidates),
		"wire.scan_pruned_bbox_frac":      ratio(c[cScanBBox], candidates),
		"wire.scan_pruned_suffix_frac":    ratio(c[cScanSuffix], candidates),
		"wire.scan_bailed_exact_frac":     ratio(c[cScanBailed], candidates),
		"wire.scan_scored_frac":           ratio(c[cScanScored], candidates),
		"wire.scan_rows_visited_per_iter": perIter(c[cScanRows]),

		"cost.wire_ms_per_iter":        costMs("wire"),
		"cost.power_ms_per_iter":       costMs("power"),
		"cost.delay_ms_per_iter":       costMs("delay"),
		"cost.congestion_ms_per_iter":  costMs("congestion"),
		"cost.dirty_frac":              ratio(c[cCostDirty], c[cCostDirty]+c[cCostFallback]),
		"timing.update_frac":           ratio(c[cTimingUpdates], c[cTimingUpdates]+c[cTimingRebuilds]),
		"timing.cone_cells_per_update": ratio(c[cTimingCone], c[cTimingUpdates]),
		"congest.bin_updates_per_iter": perIter(c[cCongestBins]),
		"congest.rebuilds":             perOp(c[cCongestRebuilds]),

		"mpi.compute_s":             ratio(d.simCompute.Seconds(), float64(d.simRuns)),
		"mpi.comm_frac":             ratio(d.simComm.Seconds(), d.simClock.Seconds()),
		"parallel.bytes_per_iter":   ratio(d.simBytes, d.simIters),
		"parallel.msgs_per_iter":    ratio(d.simMsgs, d.simIters),
		"parallel.master_comm_frac": ratio(d.simMasterComm.Seconds(), d.simMasterClock.Seconds()),

		"exchange.posted":       ratio(d.exPosted, float64(d.exRuns)),
		"exchange.adopted":      ratio(d.exAdopted, float64(d.exRuns)),
		"exchange.rejected":     ratio(d.exRejected, float64(d.exRuns)),
		"exchange.restores":     ratio(d.exRestore, float64(d.exRuns)),
		"exchange.store_epoch":  ratio(d.exEpoch, float64(d.exRuns)),
		"exchange.adopt_frac":   ratio(d.exAdopted, d.exAdopted+d.exRejected),
		"exchange.round_ms.p50": quantile(d.exRoundNs, 0.5) / 1e6,

		"transport.bytes_per_iter":    ratio(d.tcpBytes, d.tcpIters),
		"transport.msgs_per_iter":     ratio(d.tcpMsgs, d.tcpIters),
		"transport.wall_over_virtual": median(d.wallOverVirtual),

		"jobs.queue_wait_ms.p50": quantile(d.queueWaitMs, 0.5),
		"jobs.queue_wait_ms.p80": quantile(d.queueWaitMs, 0.8),
		"jobs.run_ms.p50":        quantile(d.runMs, 0.5),
		"jobs.cache_hit_frac":    ratio(float64(d.cacheHits), float64(d.jobs)),
		"api.overhead_ms.p50":    quantile(d.overheadMs, 0.5),
		"service.latency_ms.p80": quantile(d.latencyMs, 0.8),
		"service.jobs_per_s":     ratio(float64(d.jobs), d.serviceWall.Seconds()),

		"runtime.alloc_mb_per_iter":         perIter(c[cAllocBytes]) / (1 << 20),
		"runtime.gc_cycles":                 perOp(c[cGCCycles]),
		"runtime.heap_inuse_mb_after_setup": median(d.heapMB),

		"trace.overhead_frac":    ratio(median(traced), median(untraced)) - 1,
		"trace.unaccounted_frac": unaccounted(spans),
	}
	out := make(map[string]metric, len(perLayerDefs))
	for _, def := range perLayerDefs {
		out[def.Name] = metric{v[def.Name], def.Unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

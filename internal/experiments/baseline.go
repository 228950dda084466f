package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"simevo/internal/congest"
	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/parallel"
	"simevo/internal/telemetry"
)

// Baseline captures the incremental-vs-from-scratch performance of the
// engine's hot paths at the BenchmarkProfileShare scale (s1196, 60
// iterations), so future PRs have a recorded perf trajectory. The
// top-level fields measure the paper's two-objective (wire+power) mode;
// WirePowerDelay adds the three-objective mode, whose evaluation runs a
// full STA pass on every iteration in both modes. simevo-bench -baseline writes it as JSON
// (BENCH_baseline.json at the repo root).
type Baseline struct {
	Circuit   string `json:"circuit"`
	Objective string `json:"objective"`
	Iters     int    `json:"iters"`
	Seed      uint64 `json:"seed"`

	// Incremental is the default engine; Scratch is the
	// DisableIncremental reference — the paper-faithful from-scratch
	// evaluation the pre-incremental engine used.
	Incremental BaselineRun `json:"incremental"`
	Scratch     BaselineRun `json:"scratch"`

	// AllocSpeedup and TotalSpeedup compare scratch vs incremental.
	AllocSpeedup float64 `json:"alloc_speedup"`
	TotalSpeedup float64 `json:"total_speedup"`

	// TrajectoryMatch records the tentpole invariant: both modes must
	// reach the identical best solution (bitwise equal μ).
	TrajectoryMatch bool `json:"trajectory_match"`

	// GoMaxProcs and EvalWorkers record the measurement context: the
	// incremental run fans goodness evaluation (and the vacancy scan)
	// across the engine pool when more than one CPU is available, and
	// the numbers are only comparable at similar parallelism.
	GoMaxProcs  int `json:"gomaxprocs"`
	EvalWorkers int `json:"eval_workers"`

	// WirePowerDelay is the three-objective mode measurement (nil when
	// the baseline was recorded with -objectives excluding it).
	WirePowerDelay *ModeBaseline `json:"wire_power_delay,omitempty"`

	// WirePowerDelayCongest is the four-objective mode: the full cost
	// pipeline plus the congestion bin grid (nil when the
	// baseline was recorded with -objectives excluding it).
	WirePowerDelayCongest *ModeBaseline `json:"wire_power_delay_congest,omitempty"`

	// LargeCircuit is the scale-tier entry: one incremental run on the
	// generated 100k-cell circuit with congestion active. Its ns/iter is
	// informational (host wall clock); the best μ is the host-independent
	// gate — the trajectory on the large tier must stay bitwise stable.
	LargeCircuit *LargeCircuitBaseline `json:"large_circuit,omitempty"`

	// AsyncExchange is the Type III exchange-overhead entry: the same
	// 4-rank simulated cluster run under the legacy blocking protocol and
	// the asynchronous epoch-tagged one. The p50 ratio is the tentpole
	// gate (async must stay at least asyncExchangeMinSpeedup times
	// cheaper per exchange segment); the async best μ is the
	// host-independent determinism gate.
	AsyncExchange *ExchangeBaseline `json:"async_exchange,omitempty"`

	// ScanRates records, per bundled benchmark circuit, how the sharded
	// vacancy scan disposed of its candidates over a short incremental
	// run — the deterministic work counters behind the wall-clock numbers
	// above, reproducible across hosts.
	ScanRates map[string]*CircuitScanRates `json:"scan_rates,omitempty"`
}

// CircuitScanRates is one circuit's scan-prune profile: each rate is the
// fraction of Candidates (live vacancies offered across every per-cell
// scan) disposed of by that mechanism. SkippedBucket counts candidates
// never visited at all — whole rows or bucket tails cut wholesale — and
// Scored the survivors that paid for a full trial evaluation; the four
// rates plus Scored sum to ~1.
type CircuitScanRates struct {
	Objective     string  `json:"objective"`
	Iters         int     `json:"iters"`
	Candidates    uint64  `json:"candidates"`
	SkippedBucket float64 `json:"skipped_bucket"`
	PrunedBBox    float64 `json:"pruned_bbox"`
	PrunedSuffix  float64 `json:"pruned_suffix"`
	BailedExact   float64 `json:"bailed_exact"`
	Scored        float64 `json:"scored"`
	RowsVisited   uint64  `json:"rows_visited"`
}

// LargeCircuitBaseline records the scale-tier measurement. BestMu,
// Congest, and CongestPeak are deterministic for (cells, gen seed, run
// seed) and gate the large-circuit trajectory bitwise across hosts;
// NsPerIter is wall clock. ClusteredStart records that the run used the
// connectivity-clustered initial placement, and CongestBins the
// resolution-matched grid. The overflow cost (Congest) only fires when a
// bin exceeds twice the average demand; measured at 100k cells, the
// clustered start packs nets so tightly that demand flattens *below* that
// threshold at every resolution, so the gate also records the peak bin
// demand — a nonzero, bitwise-deterministic congestion signal that moves
// with any change to the demand accounting or the search trajectory even
// when the overflow cost is zero.
type LargeCircuitBaseline struct {
	Circuit        string  `json:"circuit"`
	Cells          int     `json:"cells"`
	GenSeed        uint64  `json:"gen_seed"`
	Objective      string  `json:"objective"`
	Iters          int     `json:"iters"`
	Seed           uint64  `json:"seed"`
	ClusteredStart bool    `json:"clustered_start"`
	CongestBins    int     `json:"congest_bins"`
	NsPerIter      float64 `json:"ns_per_iter"`
	BestMu         float64 `json:"best_mu"`
	Congest        float64 `json:"congest"`
	CongestPeak    float64 `json:"congest_peak"`
}

// ExchangeBaseline records the Type III exchange-overhead measurement on
// the 4-rank simulated cluster: one run per protocol, identical problem
// and seed, compute measurement off. The per-protocol p50 is the median
// timed exchange segment — for the sync protocol a blocking
// request/reply round trip plus the O(n) adoption rebuild, for the async
// protocol a post, a poll issue, a news application, or a speculation
// restore. Both runs share the gate host's wall clock, so their ratio is
// host-comparable the way the incremental-vs-scratch speedups are. The
// best μ values are virtual-time deterministic and gate bitwise.
type ExchangeBaseline struct {
	Circuit         string  `json:"circuit"`
	Objective       string  `json:"objective"`
	Procs           int     `json:"procs"`
	Iters           int     `json:"iters"`
	Seed            uint64  `json:"seed"`
	Retry           int     `json:"retry"`
	SyncP50Ns       int64   `json:"sync_p50_ns"`
	AsyncP50Ns      int64   `json:"async_p50_ns"`
	P50Speedup      float64 `json:"p50_speedup"`
	SyncBestMu      float64 `json:"sync_best_mu"`
	AsyncBestMu     float64 `json:"async_best_mu"`
	AsyncPosted     int     `json:"async_posted"`
	AsyncAdopted    int     `json:"async_adopted"`
	AsyncRejected   int     `json:"async_rejected"`
	AsyncRestores   int     `json:"async_restores"`
	AsyncStoreEpoch uint64  `json:"async_store_epoch"`
}

// ModeBaseline is one objective set's incremental-vs-scratch measurement.
type ModeBaseline struct {
	Objective       string      `json:"objective"`
	Incremental     BaselineRun `json:"incremental"`
	Scratch         BaselineRun `json:"scratch"`
	TotalSpeedup    float64     `json:"total_speedup"`
	TrajectoryMatch bool        `json:"trajectory_match"`
}

// BaselineRun is one mode's measurement. ObjectivePhases breaks the cost
// pipeline's evaluation down per objective (ns/iter keyed by objective
// name) — for the delay mode it shows how much of the iteration the STA
// pass costs.
type BaselineRun struct {
	NsPerIter      float64 `json:"ns_per_iter"`
	EvalNsPerIter  float64 `json:"eval_ns_per_iter"`
	AllocNsPerIter float64 `json:"alloc_ns_per_iter"`
	AllocShare     float64 `json:"alloc_share"`
	// Allocation sub-phase split (ns/iter): per-cell trial preparation,
	// the vacancy scans themselves, and the commit/bookkeeping tail.
	AllocPrepNsPerIter   float64            `json:"alloc_prep_ns_per_iter"`
	AllocScanNsPerIter   float64            `json:"alloc_scan_ns_per_iter"`
	AllocCommitNsPerIter float64            `json:"alloc_commit_ns_per_iter"`
	BestMu               float64            `json:"best_mu"`
	ObjectivePhases      map[string]float64 `json:"objective_phase_ns_per_iter,omitempty"`
	// Telemetry records the engine's phase counters for the kept run.
	// The work counters (iterations, evals, dirty nets, prune and cache
	// statistics) are deterministic and reproducible across hosts; the
	// *_ns phase timings are this host's wall clock.
	Telemetry *telemetry.EngineSnapshot `json:"telemetry,omitempty"`
}

const (
	baselineCircuit = "s1196"
	baselineIters   = 60
	baselineSeed    = 2006
)

// measureMode runs one (objective set, mode) configuration and reports
// the timings, best μ, and best-placement fingerprint.
func measureMode(obj fuzzy.Objectives, scratch bool, evalWorkers int) (BaselineRun, uint64, error) {
	ckt, err := gen.Benchmark(baselineCircuit)
	if err != nil {
		return BaselineRun{}, 0, err
	}
	cfg := core.DefaultConfig(obj)
	cfg.MaxIters = baselineIters
	cfg.Seed = baselineSeed
	cfg.DisableIncremental = scratch
	if !scratch {
		cfg.EvalWorkers = evalWorkers
	}
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		return BaselineRun{}, 0, err
	}
	eng := prob.NewEngine(0)
	start := time.Now()
	res := eng.Run()
	total := time.Since(start)
	p := eng.Profile()
	_, _, allocShare := p.Shares()
	phases := make(map[string]float64)
	for name, d := range eng.CostPhases() {
		phases[name] = float64(d.Nanoseconds()) / baselineIters
	}
	tel := res.Telemetry
	return BaselineRun{
		NsPerIter:            float64(total.Nanoseconds()) / baselineIters,
		EvalNsPerIter:        float64(p.Eval.Nanoseconds()) / baselineIters,
		AllocNsPerIter:       float64(p.Alloc.Nanoseconds()) / baselineIters,
		AllocShare:           allocShare,
		AllocPrepNsPerIter:   float64(tel.AllocPrepNs) / baselineIters,
		AllocScanNsPerIter:   float64(tel.AllocScanNs) / baselineIters,
		AllocCommitNsPerIter: float64(tel.AllocCommitNs) / baselineIters,
		BestMu:               res.BestMu,
		ObjectivePhases:      phases,
		Telemetry:            &tel,
	}, res.Best.Fingerprint(), nil
}

// scanRateIters keeps the per-circuit scan-rate measurement short: the
// rates stabilize within a few iterations and the s3330 wpd run is the
// expensive end of the sweep.
const scanRateIters = 12

// measureScanRates profiles the sharded scan's prune behaviour on every
// bundled circuit with the incremental engine. The counters are
// deterministic for a (circuit, objective, seed) triple, so the recorded
// rates are comparable across hosts and over time.
func measureScanRates(obj fuzzy.Objectives) (map[string]*CircuitScanRates, error) {
	rates := make(map[string]*CircuitScanRates)
	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(obj)
		cfg.MaxIters = scanRateIters
		cfg.Seed = baselineSeed
		prob, err := core.NewProblem(ckt, cfg)
		if err != nil {
			return nil, err
		}
		res := prob.NewEngine(0).Run()
		tel := res.Telemetry
		cand := tel.ScanVacancies + tel.ScanSkippedBucket
		r := &CircuitScanRates{
			Objective:   obj.String(),
			Iters:       scanRateIters,
			Candidates:  cand,
			RowsVisited: tel.ScanRowsVisited,
		}
		if cand > 0 {
			r.SkippedBucket = float64(tel.ScanSkippedBucket) / float64(cand)
			r.PrunedBBox = float64(tel.ScanPrunedBBox) / float64(cand)
			r.PrunedSuffix = float64(tel.ScanPrunedSuffix) / float64(cand)
			r.BailedExact = float64(tel.ScanBailedExact) / float64(cand)
			r.Scored = float64(tel.ScanScored) / float64(cand)
		}
		rates[name] = r
	}
	return rates, nil
}

// measureModeBest repeats a measurement and keeps the fastest run — the
// standard noise floor for wall-clock microbenchmarks. Solution quality is
// identical across repetitions (the run is deterministic), so only the
// timings differ.
func measureModeBest(obj fuzzy.Objectives, scratch bool, evalWorkers int) (BaselineRun, uint64, error) {
	const reps = 3
	r, fp, err := measureMode(obj, scratch, evalWorkers)
	if err != nil {
		return r, fp, err
	}
	for i := 1; i < reps; i++ {
		r2, _, err := measureMode(obj, scratch, evalWorkers)
		if err != nil {
			return r, fp, err
		}
		if r2.NsPerIter < r.NsPerIter {
			r = r2
		}
	}
	return r, fp, nil
}

// measureObjectiveMode measures both engine modes for one objective set.
func measureObjectiveMode(obj fuzzy.Objectives, evalWorkers int) (*ModeBaseline, error) {
	inc, incFP, err := measureModeBest(obj, false, evalWorkers)
	if err != nil {
		return nil, err
	}
	scr, scrFP, err := measureModeBest(obj, true, evalWorkers)
	if err != nil {
		return nil, err
	}
	return &ModeBaseline{
		Objective:       obj.String(),
		Incremental:     inc,
		Scratch:         scr,
		TotalSpeedup:    scr.NsPerIter / inc.NsPerIter,
		TrajectoryMatch: inc.BestMu == scr.BestMu && incFP == scrFP,
	}, nil
}

// MeasureBaseline runs both modes for the requested objective sets and
// assembles the report. The incremental engine mode is measured as it
// ships: EvalWorkers engages the parallel goodness evaluation when the
// host has more than one CPU (the trajectory is bitwise identical either
// way — only the wall clock changes). The scratch reference stays serial.
// objectives selects from "wire+power", "wire+power+delay",
// "wire+power+delay+congestion", and "large" (the 100k-cell scale-tier
// entry); "" measures all of them.
func MeasureBaseline(objectives string) (*Baseline, error) {
	evalWorkers := runtime.GOMAXPROCS(0)
	if evalWorkers > 8 {
		evalWorkers = 8
	}
	if evalWorkers <= 1 {
		evalWorkers = 0
	}
	return measureBaselineWith(evalWorkers, objectives)
}

// baselineModes selects which baseline sections to measure.
type baselineModes struct {
	wp, wpd, wpdc bool
	large         bool
	exchange      bool
}

// parseObjectiveModes maps the -objectives flag to the measured sections.
// "" selects everything.
func parseObjectiveModes(objectives string) (baselineModes, error) {
	if objectives == "" {
		return baselineModes{wp: true, wpd: true, wpdc: true, large: true, exchange: true}, nil
	}
	var m baselineModes
	for _, o := range strings.Split(objectives, ",") {
		switch strings.TrimSpace(strings.ToLower(o)) {
		case "wire+power", "wp":
			m.wp = true
		case "wire+power+delay", "wpd":
			m.wpd = true
		case "wire+power+delay+congestion", "wpdc":
			m.wpdc = true
		case "large":
			m.large = true
		case "exchange":
			m.exchange = true
		case "":
		default:
			return baselineModes{}, fmt.Errorf("experiments: unknown objective mode %q (have wire+power, wire+power+delay, wire+power+delay+congestion, large, exchange)", o)
		}
	}
	if !m.wp && !m.wpd && !m.wpdc && !m.large && !m.exchange {
		return baselineModes{}, fmt.Errorf("experiments: no objective mode selected")
	}
	return m, nil
}

/// largeCircuitIters keeps the scale-tier entry affordable: the 100k-cell
// iteration costs seconds of wall clock, and two iterations exercise both
// the from-cold first evaluation and a full steady-state step.
const largeCircuitIters = 2

// largeCongestBins is the scale tier's congestion-grid column count. The
// package default (16 columns) is matched to the kilocell ISCAS tier; at
// 100k cells it averages so much area into each bin that no starting
// placement — uniform or clustered — ever crosses the 2x-average overflow
// threshold. 64 columns resolves demand at roughly cluster granularity
// while keeping the per-evaluation finish pass (one scan over NX·NY bins)
// negligible next to the allocation work.
const largeCongestBins = 64

// measureLargeCircuit runs the incremental engine on the generated
// 100k-cell tier with congestion active. One rep — the gate consumes the
// deterministic μ, not the wall clock.
func measureLargeCircuit(evalWorkers int) (*LargeCircuitBaseline, error) {
	ckt, err := gen.Generate(gen.ScaledParams("large", gen.LargeCells, 1))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(fuzzy.WirePowerCongest)
	cfg.MaxIters = largeCircuitIters
	cfg.Seed = baselineSeed
	cfg.EvalWorkers = evalWorkers
	// Non-uniform start for the scale tier. Note the measured congestion
	// behaviour is the opposite of the intuition that clustering creates
	// hotspots: clustering shrinks net bounding boxes, which *flattens*
	// bbox-spread demand (peak/avg stays under 2x at every grid
	// resolution probed up to 192 columns), while the uniform-random deal
	// overlaps 100k die-spanning boxes at the die center and overflows
	// once the grid resolves it (64+ columns). The clustered start is
	// kept because it is the realistic warm start and shifts the μ
	// trajectory the gate pins; congestion discrimination comes from the
	// peak-demand record below, which is nonzero regardless of start.
	cfg.ClusteredStart = true
	cfg.CongestBins = largeCongestBins
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		return nil, err
	}
	eng := prob.NewEngine(0)
	start := time.Now()
	res := eng.Run()
	total := time.Since(start)
	// Re-derive the congestion grid over the best placement to record the
	// peak bin demand. Same spec the engines used (cfg.NumRows is 0 here,
	// so the engine rows are layout.DefaultNumRows).
	grid := congest.New(ckt, congest.SpecFor(ckt, layout.DefaultNumRows(ckt), largeCongestBins),
		congest.PlacementSource{P: res.Best})
	grid.Silence()
	grid.Full(nil)
	return &LargeCircuitBaseline{
		Circuit:        "large",
		Cells:          gen.LargeCells,
		GenSeed:        1,
		Objective:      fuzzy.WirePowerCongest.String(),
		Iters:          largeCircuitIters,
		Seed:           baselineSeed,
		ClusteredStart: true,
		CongestBins:    largeCongestBins,
		NsPerIter:      float64(total.Nanoseconds()) / largeCircuitIters,
		BestMu:         res.BestMu,
		Congest:        res.BestCosts.Congest,
		CongestPeak:    grid.Peak(),
	}, nil
}

// Exchange-bench parameters: enough iterations at a tight retry budget
// that every searcher performs several store consultations, on the same
// pinned circuit and seed as the rest of the baseline.
const (
	exchangeIters = 40
	exchangeRetry = 5
	exchangeProcs = 4
)

// asyncExchangeMinSpeedup is the tentpole gate: the async protocol's p50
// exchange segment must be at least this many times cheaper than the sync
// protocol's blocking round trip, measured back to back on the gate host.
const asyncExchangeMinSpeedup = 2.0

// measureExchange runs the Type III exchange bench once per protocol on
// the simulated 4-rank cluster with compute measurement off, so the
// schedules — and the recorded best μ values — are virtual-time
// deterministic across hosts. Only the p50 segment timings are wall clock.
func measureExchange() (*ExchangeBaseline, error) {
	run := func(sync bool) (*parallel.Result, error) {
		ckt, err := gen.Benchmark(baselineCircuit)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(fuzzy.WirePower)
		cfg.MaxIters = exchangeIters
		cfg.Seed = baselineSeed
		prob, err := core.NewProblem(ckt, cfg)
		if err != nil {
			return nil, err
		}
		net := mpi.FastEthernet()
		off := false
		return parallel.RunTypeIII(prob, parallel.Options{
			Procs:          exchangeProcs,
			Net:            &net,
			MeasureCompute: &off,
			Retry:          exchangeRetry,
			SyncExchange:   sync,
		})
	}
	syncRes, err := run(true)
	if err != nil {
		return nil, err
	}
	asyncRes, err := run(false)
	if err != nil {
		return nil, err
	}
	b := &ExchangeBaseline{
		Circuit:     baselineCircuit,
		Objective:   fuzzy.WirePower.String(),
		Procs:       exchangeProcs,
		Iters:       exchangeIters,
		Seed:        baselineSeed,
		Retry:       exchangeRetry,
		SyncP50Ns:   syncRes.Exchange.P50RoundNs(),
		AsyncP50Ns:  asyncRes.Exchange.P50RoundNs(),
		SyncBestMu:  syncRes.BestMu,
		AsyncBestMu: asyncRes.BestMu,
	}
	if ex := asyncRes.Exchange; ex != nil {
		b.AsyncPosted = ex.Posted
		b.AsyncAdopted = ex.Adopted
		b.AsyncRejected = ex.Rejected
		b.AsyncRestores = ex.Restores
		b.AsyncStoreEpoch = ex.StoreEpoch
	}
	if b.AsyncP50Ns > 0 {
		b.P50Speedup = float64(b.SyncP50Ns) / float64(b.AsyncP50Ns)
	}
	return b, nil
}

// measureBaselineWith measures at a pinned evaluation fan-out, so the
// bench gate can reproduce the committed baseline's configuration.
func measureBaselineWith(evalWorkers int, objectives string) (*Baseline, error) {
	m, err := parseObjectiveModes(objectives)
	if err != nil {
		return nil, err
	}
	wp, wpd := m.wp, m.wpd
	b := &Baseline{
		Circuit:     baselineCircuit,
		Objective:   "wire+power",
		Iters:       baselineIters,
		Seed:        baselineSeed,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		EvalWorkers: evalWorkers,
	}
	if !wp {
		// Without the wire+power measurement the legacy top-level fields
		// stay zero; blank the objective label so the file cannot be
		// misread as recording a diverged wp trajectory.
		b.Objective = ""
	} else {
		mode, err := measureObjectiveMode(fuzzy.WirePower, evalWorkers)
		if err != nil {
			return nil, err
		}
		b.Incremental = mode.Incremental
		b.Scratch = mode.Scratch
		b.AllocSpeedup = mode.Scratch.AllocNsPerIter / mode.Incremental.AllocNsPerIter
		b.TotalSpeedup = mode.TotalSpeedup
		b.TrajectoryMatch = mode.TrajectoryMatch
	}
	if wpd {
		mode, err := measureObjectiveMode(fuzzy.WirePowerDelay, evalWorkers)
		if err != nil {
			return nil, err
		}
		b.WirePowerDelay = mode
	}
	if m.wpdc {
		mode, err := measureObjectiveMode(fuzzy.WirePowerDelayCongest, evalWorkers)
		if err != nil {
			return nil, err
		}
		b.WirePowerDelayCongest = mode
	}
	if m.large {
		large, err := measureLargeCircuit(evalWorkers)
		if err != nil {
			return nil, err
		}
		b.LargeCircuit = large
	}
	if m.exchange {
		ex, err := measureExchange()
		if err != nil {
			return nil, err
		}
		b.AsyncExchange = ex
	}
	// Scan-prune rates for the most scan-bound selected mode: wpd when
	// measured (the mode the delay-aware bounds exist for), wp otherwise.
	rateObj := fuzzy.WirePower
	if wpd {
		rateObj = fuzzy.WirePowerDelay
	}
	rates, err := measureScanRates(rateObj)
	if err != nil {
		return nil, err
	}
	b.ScanRates = rates
	return b, nil
}

// CheckTolerance is the bench-regression gate: CheckBaseline fails when
// a measured incremental-over-scratch speedup falls more than this
// fraction below the committed baseline's.
const CheckTolerance = 0.15

// Tentpole allocation gates. wpdFlatScanNsPerIter is the committed wpd
// incremental ns/iter of the flat free-list scan (PR 6, reference host);
// the committed baseline must show the bucketed scan at least
// wpdMinSpeedupVsFlat times faster. The floor is 1.5x, not the 2x-plus
// the steady-state step benchmark shows: the baseline protocol averages
// only the first 60 iterations, where the selection sets — and with them
// the vacancy pools every scan covers — are at their largest and the
// per-cell prep (RemoveCell pin edits, trial compilation, envelope
// construction) is at its heaviest relative to the pruned scan, so the
// equal-protocol ratio on the single-CPU reference host lands at
// ~1.55x (1.93ms vs 3.00ms) with ±6% run-to-run noise. The alloc-share
// ceiling depends on what the gate host can reach: a multi-core runner
// engages the pooled per-cell fan-out and is held to wpdAllocShareGate;
// a single-CPU runner cannot fan out, and with evaluation and selection
// already O(dirty)-cheap its allocation share has a structural floor
// (~0.80 measured serial on the reference host) — it is held to
// wpdAllocShareGateSerial so scan regressions still fail without
// penalizing hardware that cannot reach the parallel target.
const (
	wpdFlatScanNsPerIter    = 3004821.0
	wpdMinSpeedupVsFlat     = 1.5
	wpdAllocShareGate       = 0.60
	wpdAllocShareGateSerial = 0.88
)

// CheckBaseline re-measures the baseline and compares it against the
// committed JSON at path: the solution trajectories must be unchanged
// (identical best μ, all recorded modes matching) and the
// incremental-over-scratch speedups — for every objective mode the
// committed file records — must not have regressed by more than
// CheckTolerance. The wpd section additionally carries the allocation
// tentpole gates (see gateWpdAllocation); a recorded large-circuit entry
// gates the scale-tier trajectory bitwise (see gateLargeCircuit).
// The committed file's telemetry key sets must be a
// subset of the current schema: added counters are tolerated, removed
// ones fail the gate. The measurement is pinned to the committed
// baseline's parallelism (GOMAXPROCS and EvalWorkers are restored from
// the JSON), so a serial baseline is never compared against a multi-core
// run or vice versa; per-core speed differences between hosts remain —
// refresh the baseline from an environment comparable to the gate's.
// When outPath is non-empty the freshly measured baseline is written
// there (the CI gate uploads it as an artifact beside the cpuprofile).
// Used by the CI bench gate.
func CheckBaseline(path, outPath string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref Baseline
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if err := checkTelemetryKeys(data); err != nil {
		return err
	}
	if ref.GoMaxProcs > 0 && ref.GoMaxProcs != runtime.GOMAXPROCS(0) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ref.GoMaxProcs))
	}
	// Gate exactly the modes the committed file records: a baseline
	// written with -objectives wire+power+delay carries zero-valued
	// top-level wire+power fields, which must not be measured against.
	wpRecorded := ref.Incremental.NsPerIter > 0
	var modes []string
	if wpRecorded {
		modes = append(modes, "wire+power")
	}
	if ref.WirePowerDelay != nil {
		modes = append(modes, "wire+power+delay")
	}
	if ref.WirePowerDelayCongest != nil {
		modes = append(modes, "wire+power+delay+congestion")
	}
	if ref.LargeCircuit != nil {
		modes = append(modes, "large")
	}
	if ref.AsyncExchange != nil {
		modes = append(modes, "exchange")
	}
	if len(modes) == 0 {
		return fmt.Errorf("experiments: %s records no objective mode to gate", path)
	}
	got, err := measureBaselineWith(ref.EvalWorkers, strings.Join(modes, ","))
	if err != nil {
		return err
	}
	// Gate on the incremental-over-scratch speedup, not absolute wall
	// clock: both runs share the host, so per-core speed differences
	// between the machine that recorded the baseline and the one running
	// the gate cancel out. The absolute ns/iter is still printed for the
	// log trail.
	if wpRecorded {
		wp := ModeBaseline{Objective: "wire+power",
			Incremental: ref.Incremental, Scratch: ref.Scratch,
			TotalSpeedup: ref.TotalSpeedup, TrajectoryMatch: ref.TrajectoryMatch}
		gotWP := ModeBaseline{Incremental: got.Incremental,
			TotalSpeedup: got.TotalSpeedup, TrajectoryMatch: got.TrajectoryMatch}
		if err := gateMode(w, &wp, &gotWP, ref.GoMaxProcs, got.GoMaxProcs); err != nil {
			return err
		}
	}
	if ref.WirePowerDelay != nil {
		if err := gateMode(w, ref.WirePowerDelay, got.WirePowerDelay, 0, 0); err != nil {
			return err
		}
		if err := gateWpdAllocation(w, ref.WirePowerDelay, got.WirePowerDelay, got.GoMaxProcs); err != nil {
			return err
		}
	}
	if ref.WirePowerDelayCongest != nil {
		if err := gateMode(w, ref.WirePowerDelayCongest, got.WirePowerDelayCongest, 0, 0); err != nil {
			return err
		}
	}
	if ref.LargeCircuit != nil {
		if err := gateLargeCircuit(w, ref.LargeCircuit, got.LargeCircuit); err != nil {
			return err
		}
	}
	if ref.AsyncExchange != nil {
		if err := gateAsyncExchange(w, ref.AsyncExchange, got.AsyncExchange); err != nil {
			return err
		}
	}
	if outPath != "" {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench gate: measured baseline written to %s\n", outPath)
	}
	fmt.Fprintln(w, "bench gate: ok")
	return nil
}

// gateWpdAllocation enforces the allocation tentpole on the wpd section:
// the committed iteration must show the bucketed-scan win over the PR-6
// flat scan (both numbers recorded on the same reference-host lineage),
// and the measured allocation share must stay under the ceiling the gate
// host can actually reach (see the gate constants above).
func gateWpdAllocation(w io.Writer, ref, got *ModeBaseline, gotProcs int) error {
	if ref.Incremental.NsPerIter*wpdMinSpeedupVsFlat > wpdFlatScanNsPerIter {
		return fmt.Errorf("experiments: committed wpd incremental %.0f ns/iter is not >=%.1fx faster than the PR-6 flat scan (%.0f ns/iter)",
			ref.Incremental.NsPerIter, wpdMinSpeedupVsFlat, wpdFlatScanNsPerIter)
	}
	limit, kind := wpdAllocShareGate, "parallel"
	if gotProcs <= 1 {
		limit, kind = wpdAllocShareGateSerial, "serial"
	}
	fmt.Fprintf(w, "bench gate [wire+power+delay]: alloc share %.3f (%s limit %.2f), committed %.2fx over the PR-6 flat scan\n",
		got.Incremental.AllocShare, kind, limit, wpdFlatScanNsPerIter/ref.Incremental.NsPerIter)
	if got.Incremental.AllocShare >= limit {
		return fmt.Errorf("experiments: wpd alloc share %.3f breached the %s gate %.2f",
			got.Incremental.AllocShare, kind, limit)
	}
	return nil
}

// gateLargeCircuit holds the scale-tier trajectory bitwise: μ (and the
// congestion cost) on the generated 100k circuit are deterministic for the
// recorded (cells, gen seed, run seed), so any drift means the engine's
// search behaviour changed at scale. The ns/iter is printed but not gated
// — it is the recording host's wall clock.
func gateLargeCircuit(w io.Writer, ref, got *LargeCircuitBaseline) error {
	fmt.Fprintf(w, "bench gate [large]: %d cells, %d iters; committed %.0f ns/iter, measured %.0f ns/iter (informational); best-mu %.6f\n",
		ref.Cells, ref.Iters, ref.NsPerIter, got.NsPerIter, got.BestMu)
	if got.BestMu != ref.BestMu {
		return fmt.Errorf("experiments: large-circuit best mu changed: committed %v, measured %v",
			ref.BestMu, got.BestMu)
	}
	if got.Congest != ref.Congest {
		return fmt.Errorf("experiments: large-circuit congestion cost changed: committed %v, measured %v",
			ref.Congest, got.Congest)
	}
	// The overflow cost can legitimately be zero (the clustered start
	// flattens demand below the 2x-average threshold); the peak bin demand
	// never is, so it is the signal that actually discriminates congestion
	// accounting at scale.
	if got.CongestPeak != ref.CongestPeak {
		return fmt.Errorf("experiments: large-circuit peak congestion demand changed: committed %v, measured %v",
			ref.CongestPeak, got.CongestPeak)
	}
	return nil
}

// gateAsyncExchange enforces the async-exchange tentpole. The p50 ratio
// gates on the *measured* pair — both protocols run back to back on the
// gate host, so per-core speed differences cancel exactly like the
// incremental-vs-scratch speedups — and the async best μ (plus the
// exchange activity counters, all virtual-time deterministic) gate
// bitwise against the committed file.
func gateAsyncExchange(w io.Writer, ref, got *ExchangeBaseline) error {
	fmt.Fprintf(w, "bench gate [exchange]: committed sync p50 %d ns vs async p50 %d ns (%.1fx); measured %d vs %d ns (%.1fx), async best-mu %.6f\n",
		ref.SyncP50Ns, ref.AsyncP50Ns, ref.P50Speedup,
		got.SyncP50Ns, got.AsyncP50Ns, got.P50Speedup, got.AsyncBestMu)
	if got.AsyncBestMu != ref.AsyncBestMu {
		return fmt.Errorf("experiments: async exchange best mu changed: committed %v, measured %v",
			ref.AsyncBestMu, got.AsyncBestMu)
	}
	if got.SyncBestMu != ref.SyncBestMu {
		return fmt.Errorf("experiments: sync exchange best mu changed: committed %v, measured %v",
			ref.SyncBestMu, got.SyncBestMu)
	}
	if got.AsyncPosted != ref.AsyncPosted || got.AsyncAdopted != ref.AsyncAdopted ||
		got.AsyncRejected != ref.AsyncRejected || got.AsyncRestores != ref.AsyncRestores ||
		got.AsyncStoreEpoch != ref.AsyncStoreEpoch {
		return fmt.Errorf("experiments: async exchange activity changed: committed posted=%d adopted=%d rejected=%d restores=%d epoch=%d, measured posted=%d adopted=%d rejected=%d restores=%d epoch=%d",
			ref.AsyncPosted, ref.AsyncAdopted, ref.AsyncRejected, ref.AsyncRestores, ref.AsyncStoreEpoch,
			got.AsyncPosted, got.AsyncAdopted, got.AsyncRejected, got.AsyncRestores, got.AsyncStoreEpoch)
	}
	if got.AsyncP50Ns > 0 && float64(got.SyncP50Ns) < asyncExchangeMinSpeedup*float64(got.AsyncP50Ns) {
		return fmt.Errorf("experiments: async exchange p50 %d ns is not >=%.1fx cheaper than sync %d ns",
			got.AsyncP50Ns, asyncExchangeMinSpeedup, got.SyncP50Ns)
	}
	return nil
}

// checkTelemetryKeys asserts every telemetry key the committed baseline
// records still exists in the current EngineSnapshot schema. Keys the
// current schema has that the file lacks are fine — counters are added
// as instrumentation grows, and an old baseline must not fail the gate
// for it — but a recorded key with no current counterpart means a
// counter was removed, which silently breaks every consumer of the
// committed file.
func checkTelemetryKeys(data []byte) error {
	type section struct {
		Telemetry map[string]json.RawMessage `json:"telemetry"`
	}
	type modeSections struct {
		Incremental section `json:"incremental"`
		Scratch     section `json:"scratch"`
	}
	var raw struct {
		Incremental           section       `json:"incremental"`
		Scratch               section       `json:"scratch"`
		WirePowerDelay        *modeSections `json:"wire_power_delay"`
		WirePowerDelayCongest *modeSections `json:"wire_power_delay_congest"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("experiments: parsing telemetry sections: %w", err)
	}
	schemaJSON, err := json.Marshal(&telemetry.EngineSnapshot{})
	if err != nil {
		return err
	}
	schema := map[string]json.RawMessage{}
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return err
	}
	check := func(name string, keys map[string]json.RawMessage) error {
		var missing []string
		for k := range keys {
			if _, ok := schema[k]; !ok {
				missing = append(missing, k)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		sort.Strings(missing)
		return fmt.Errorf("experiments: %s telemetry records keys the current schema no longer produces: %v (added keys are tolerated; removed keys break the baseline)",
			name, missing)
	}
	if err := check("incremental", raw.Incremental.Telemetry); err != nil {
		return err
	}
	if err := check("scratch", raw.Scratch.Telemetry); err != nil {
		return err
	}
	if raw.WirePowerDelay != nil {
		if err := check("wire_power_delay.incremental", raw.WirePowerDelay.Incremental.Telemetry); err != nil {
			return err
		}
		if err := check("wire_power_delay.scratch", raw.WirePowerDelay.Scratch.Telemetry); err != nil {
			return err
		}
	}
	if raw.WirePowerDelayCongest != nil {
		if err := check("wire_power_delay_congest.incremental", raw.WirePowerDelayCongest.Incremental.Telemetry); err != nil {
			return err
		}
		if err := check("wire_power_delay_congest.scratch", raw.WirePowerDelayCongest.Scratch.Telemetry); err != nil {
			return err
		}
	}
	return nil
}

// gateMode applies the three per-mode gates — unchanged trajectory,
// unchanged best μ, speedup within tolerance — to one objective set.
func gateMode(w io.Writer, ref, got *ModeBaseline, refProcs, gotProcs int) error {
	name := ref.Objective
	procs := ""
	if refProcs > 0 {
		procs = fmt.Sprintf(" (gomaxprocs %d→%d)", refProcs, gotProcs)
	}
	fmt.Fprintf(w, "bench gate [%s]: committed %.0f ns/iter at %.2fx over scratch; measured %.0f ns/iter at %.2fx, best-mu %.6f%s\n",
		name, ref.Incremental.NsPerIter, ref.TotalSpeedup,
		got.Incremental.NsPerIter, got.TotalSpeedup, got.Incremental.BestMu, procs)
	if !got.TrajectoryMatch {
		return fmt.Errorf("experiments: %s incremental/scratch trajectories diverged", name)
	}
	if got.Incremental.BestMu != ref.Incremental.BestMu {
		return fmt.Errorf("experiments: %s best mu changed: committed %v, measured %v",
			name, ref.Incremental.BestMu, got.Incremental.BestMu)
	}
	if ref.TotalSpeedup > 0 && got.TotalSpeedup < ref.TotalSpeedup/(1+CheckTolerance) {
		return fmt.Errorf("experiments: %s speedup over scratch regressed: committed %.2fx, measured %.2fx (> %.0f%% tolerance)",
			name, ref.TotalSpeedup, got.TotalSpeedup, CheckTolerance*100)
	}
	return nil
}

// WriteBaseline measures the baseline for the requested objective modes
// ("" = all), writes it as JSON to path, and prints a summary table.
func WriteBaseline(path, objectives string, w io.Writer) error {
	b, err := MeasureBaseline(objectives)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline: %s, %d iters, seed %d\n", b.Circuit, b.Iters, b.Seed)
	row := func(name string, r BaselineRun) {
		fmt.Fprintf(w, "  %-24s %14.0f %14.0f %12.3f %8.4f\n",
			name, r.NsPerIter, r.AllocNsPerIter, r.AllocShare, r.BestMu)
	}
	fmt.Fprintf(w, "  %-24s %14s %14s %12s %8s\n", "mode", "ns/iter", "alloc-ns/iter", "alloc-share", "best-mu")
	if b.Objective != "" {
		row("wp incremental", b.Incremental)
		row("wp scratch", b.Scratch)
		fmt.Fprintf(w, "  wire+power: alloc speedup %.2fx, total speedup %.2fx, trajectory match %v\n",
			b.AllocSpeedup, b.TotalSpeedup, b.TrajectoryMatch)
	}
	if m := b.WirePowerDelay; m != nil {
		row("wpd incremental", m.Incremental)
		row("wpd scratch", m.Scratch)
		fmt.Fprintf(w, "  wire+power+delay: total speedup %.2fx, trajectory match %v\n",
			m.TotalSpeedup, m.TrajectoryMatch)
		fmt.Fprintf(w, "  wpd objective phases (ns/iter, incremental vs scratch):\n")
		for _, name := range []string{"wire", "power", "delay"} {
			fmt.Fprintf(w, "    %-8s %12.0f %12.0f\n", name,
				m.Incremental.ObjectivePhases[name], m.Scratch.ObjectivePhases[name])
		}
	}
	if m := b.WirePowerDelayCongest; m != nil {
		row("wpdc incremental", m.Incremental)
		row("wpdc scratch", m.Scratch)
		fmt.Fprintf(w, "  wire+power+delay+congestion: total speedup %.2fx, trajectory match %v\n",
			m.TotalSpeedup, m.TrajectoryMatch)
		fmt.Fprintf(w, "  wpdc objective phases (ns/iter, incremental vs scratch):\n")
		for _, name := range []string{"wire", "power", "delay", "congestion"} {
			fmt.Fprintf(w, "    %-12s %12.0f %12.0f\n", name,
				m.Incremental.ObjectivePhases[name], m.Scratch.ObjectivePhases[name])
		}
	}
	if l := b.LargeCircuit; l != nil {
		fmt.Fprintf(w, "  large circuit: %d cells (%s), %d iters, clustered start %v, %d congest bins, %.0f ns/iter, best μ %.6f, congestion %.2f (peak demand %.1f)\n",
			l.Cells, l.Objective, l.Iters, l.ClusteredStart, l.CongestBins, l.NsPerIter, l.BestMu, l.Congest, l.CongestPeak)
	}
	if e := b.AsyncExchange; e != nil {
		fmt.Fprintf(w, "  async exchange: %d ranks, %d iters, retry %d; sync p50 %d ns vs async p50 %d ns (%.1fx); async μ %.6f (posted %d, adopted %d, rejected %d, restores %d, epoch %d)\n",
			e.Procs, e.Iters, e.Retry, e.SyncP50Ns, e.AsyncP50Ns, e.P50Speedup,
			e.AsyncBestMu, e.AsyncPosted, e.AsyncAdopted, e.AsyncRejected, e.AsyncRestores, e.AsyncStoreEpoch)
	}
	if len(b.ScanRates) > 0 {
		fmt.Fprintf(w, "  scan prune rates (%d iters, fraction of candidates):\n", scanRateIters)
		fmt.Fprintf(w, "    %-8s %12s %8s %8s %8s %8s %8s\n",
			"circuit", "candidates", "skipped", "bbox", "suffix", "exact", "scored")
		names := make([]string, 0, len(b.ScanRates))
		for n := range b.ScanRates {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := b.ScanRates[n]
			fmt.Fprintf(w, "    %-8s %12d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				n, r.Candidates, r.SkippedBucket, r.PrunedBBox, r.PrunedSuffix, r.BailedExact, r.Scored)
		}
	}
	fmt.Fprintf(w, "  written to %s\n", path)
	return nil
}

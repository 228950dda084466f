package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Target is the floor μ every operation must reach; an operation
	// below it counts as failed. It catches a search that stopped
	// optimizing, not a regression in quality (best_mu has its own bound).
	Target float64
	// Deterministic workloads repeat their results bitwise for a seed, so
	// the traced run must reproduce the untraced run's best μ exactly.
	Deterministic bool
	// rep runs one repetition: its set-ups, its operations, and their
	// correctness checks.
	rep func(r *runner, i int)
}

// opResult is one operation: a placement run or, for the service, a job.
type opResult struct {
	Seed     uint64  `json:"seed"`
	WallS    float64 `json:"wall_s"`
	VirtualS float64 `json:"virtual_s,omitempty"`
	Mu       float64 `json:"best_mu"`
	Cached   bool    `json:"cached,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// record is everything one workload run measured: raw per-repetition
// values, the derived metrics, and the failures.
type record struct {
	Workload  string            `json:"workload"`
	TargetMu  float64           `json:"target_mu"`
	Setups    []float64         `json:"setup_s"`
	Ops       []opResult        `json:"ops"`
	TracedOps []opResult        `json:"traced_ops,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	PeakRSSMB float64           `json:"peak_rss_mb,omitempty"`
}

// runner carries one workload run's state through its repetitions.
type runner struct {
	wl    *workload
	seed  uint64
	smoke bool

	tr     *tracer // nil outside the traced section
	parent int     // span id the current repetition's spans hang under

	setups []float64
	ops    []opResult
	layer  layerData
}

// runWorkload measures a workload for about budget: untraced repetitions
// until the budget is spent (at least one), or, when traced, the same
// repetitions untraced and then traced, for the tracing overhead and the
// bitwise check of the traced run.
func runWorkload(wl *workload, seed uint64, budget time.Duration, trace, smoke bool, traceDir string) *record {
	r := &runner{wl: wl, seed: seed, smoke: smoke, parent: -1, layer: layerData{costNs: map[string]float64{}}}
	rec := &record{Workload: wl.Name, TargetMu: wl.Target}
	if trace {
		budget /= 2
	}
	start := time.Now()
	reps := 0
	for {
		t := time.Now()
		wl.rep(r, reps)
		reps++
		last := time.Since(t)
		if smoke || time.Since(start)+last > budget {
			break
		}
	}
	rec.Setups, rec.Ops = r.setups, r.ops
	if !trace {
		rec.Metrics = endToEndMetrics(rec)
		rec.finish()
		return rec
	}

	// Traced section: the same repetitions, spans on.
	untraced := r.ops
	r.setups, r.ops, r.layer = nil, nil, layerData{costNs: map[string]float64{}}
	r.tr = newTracer()
	r.parent = r.tr.begin("workload", -1)
	root := r.parent
	for i := 0; i < reps; i++ {
		r.parent = r.tr.begin("rep", root)
		wl.rep(r, i)
		r.tr.end(r.parent)
	}
	r.tr.end(root)
	rec.TracedOps = r.ops
	if wl.Deterministic {
		for i := range min(len(untraced), len(r.ops)) {
			if u, t := untraced[i], &r.ops[i]; u.Mu != t.Mu {
				t.fail(fmt.Sprintf("traced best μ %v != untraced %v", t.Mu, u.Mu))
			}
		}
	}
	spans := r.tr.snapshot()
	rec.Metrics = layerMetrics(&r.layer, spans, walls(untraced), walls(r.ops))
	if traceDir != "" {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", traceDir, wl.Name, seed)
		if err := writeSpans(path, spans); err != nil {
			rec.Failures = append(rec.Failures, "writing spans: "+err.Error())
		}
	}
	rec.finish()
	return rec
}

// finish counts attempted and failed operations.
func (rec *record) finish() {
	for _, ops := range [][]opResult{rec.Ops, rec.TracedOps} {
		for _, op := range ops {
			rec.Attempted++
			if op.Error != "" {
				rec.Failed++
				rec.Failures = append(rec.Failures, fmt.Sprintf("seed %d: %s", op.Seed, op.Error))
			}
		}
	}
	if rec.Attempted == 0 {
		rec.Attempted, rec.Failed = 1, 1
		rec.Failures = append(rec.Failures, "no operation completed")
	}
}

func walls(ops []opResult) []float64 {
	var out []float64
	for _, op := range ops {
		out = append(out, op.WallS)
	}
	return out
}

// fail appends a failure to the operation.
func (op *opResult) fail(msg string) {
	if op.Error != "" {
		op.Error += "; "
	}
	op.Error += msg
}

func (r *runner) begin(name string) int             { return r.tr.begin(name, r.parent) }
func (r *runner) beginUnder(name string, p int) int { return r.tr.begin(name, p) }
func (r *runner) end(id int) counters               { return r.tr.end(id) }

// traced reports whether the current repetition records spans.
func (r *runner) traced() bool { return r.tr != nil }

// gc collects garbage between phases of a repetition, so garbage left by
// one phase neither slows the next nor lifts the peak RSS by chance.
func (r *runner) gc() {
	id := r.begin("runtime.gc")
	runtime.GC()
	r.end(id)
}

// afterSetup collects the set-up's garbage before the measured call, so
// the call starts from the same heap whatever the set-up left behind, and
// records the heap in use.
func (r *runner) afterSetup() {
	r.gc()
	if !r.traced() {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	r.layer.heapMB = append(r.layer.heapMB, float64(s[0].Value.Uint64())/(1<<20))
}

// repSeed derives repetition i's seed from the run seed (splitmix64), so a
// run covers several inputs and the same seed gives the same inputs.
func repSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkBest verifies a reported best solution: the placement is valid, and
// a from-scratch reference engine (Config.DisableIncremental) evaluating
// it reproduces the reported costs and μ bitwise.
func (r *runner) checkBest(op *opResult, prob *core.Problem, best *layout.Placement, costs fuzzy.Costs, mu float64) {
	id := r.begin("core.reference_eval")
	defer r.end(id)
	if best == nil {
		op.fail("no best placement")
		return
	}
	if err := best.Validate(); err != nil {
		op.fail("invalid best placement: " + err.Error())
		return
	}
	ref := *prob
	ref.Cfg.DisableIncremental = true
	eng := ref.EngineFrom(best.Clone(), nil)
	eng.EvaluateCosts()
	if eng.Costs() != costs || eng.Mu() != mu {
		op.fail(fmt.Sprintf("reference evaluation %+v μ %v != reported %+v μ %v", eng.Costs(), eng.Mu(), costs, mu))
	}
	if mu < r.wl.Target && !r.smoke { // smoke budgets are too short to reach it
		op.fail(fmt.Sprintf("best μ %.4f below the target %.4f", mu, r.wl.Target))
	}
}

// itersToTarget returns the number of evaluations until the best μ in the
// trace reached the target (0 when it never did).
func itersToTarget(trace []float64, target float64) float64 {
	for i, mu := range trace {
		if mu >= target {
			return float64(i + 1)
		}
	}
	return 0
}

// placementFromRows rebuilds a placement from the row-by-row cell names a
// job result carries, through the layout wire format (little-endian int32:
// row count, then per row its cell count and cell ids).
func placementFromRows(ckt *netlist.Circuit, rows [][]string) (*layout.Placement, error) {
	ids := make(map[string]int32, len(ckt.Cells))
	for i, c := range ckt.Cells {
		ids[c.Name] = int32(i)
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	for _, row := range rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row)))
		for _, name := range row {
			id, ok := ids[name]
			if !ok {
				return nil, fmt.Errorf("unknown cell %q", name)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	return layout.DecodePlacement(ckt, buf)
}

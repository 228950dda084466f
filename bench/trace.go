package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"simevo/internal/telemetry"
)

// Process counters the layers already export through the telemetry
// registry. Each workload runs in its own process, so a delta over a call
// belongs to that call (and to whatever else the workload runs beside it).
const (
	cIterations = iota
	cEvalNs
	cSelectNs
	cAllocNs
	cAllocPrepNs
	cAllocScanNs
	cAllocCommitNs
	cEvalsIncremental
	cEvalsRebuild
	cEvalsReference
	cDirtyNets
	cGoodnessHits
	cGoodnessMisses
	cScanVacancies
	cScanBBox
	cScanSuffix
	cScanBailed
	cScanSkipped
	cScanRows
	cScanScored
	cCostFull
	cCostDirty
	cCostFallback
	cCongestBins
	cCongestRebuilds
	cTimingUpdates
	cTimingCone
	cTimingRebuilds
	cExPosted
	cExAdopted
	cExRejected
	cExRestores
	cFramesSent
	cBytesSent
	cAllocBytes
	cGCCycles
	numCounters
)

var counterNames = [numCounters]string{
	"engine.iterations", "engine.eval_ns", "engine.select_ns", "engine.alloc_ns",
	"engine.alloc_prep_ns", "engine.alloc_scan_ns", "engine.alloc_commit_ns",
	"engine.evals_incremental", "engine.evals_rebuild", "engine.evals_reference",
	"engine.dirty_nets", "engine.goodness_hits", "engine.goodness_misses",
	"scan.vacancies", "scan.pruned_bbox", "scan.pruned_suffix", "scan.bailed_exact",
	"scan.skipped_bucket", "scan.rows_visited", "scan.scored",
	"cost.full", "cost.dirty", "cost.dirty_fallback",
	"congest.bin_updates", "congest.rebuilds",
	"timing.updates", "timing.cone_cells", "timing.rebuilds",
	"exchange.posted", "exchange.adopted", "exchange.rejected", "exchange.restores",
	"transport.frames_sent", "transport.bytes_sent",
	"runtime.alloc_bytes", "runtime.gc_cycles",
}

type counters [numCounters]float64

func (c *counters) add(d counters) {
	for i := range c {
		c[i] += d[i]
	}
}

// readCounters snapshots the process counters.
func readCounters() counters {
	u := func(c *telemetry.Counter) float64 { return float64(c.Load()) }
	h := func(h *telemetry.Histogram) float64 { return float64(h.Sum()) }
	rt := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rt)
	return counters{
		cIterations:       u(telemetry.EngineIterations),
		cEvalNs:           h(telemetry.EnginePhaseEvalNs),
		cSelectNs:         h(telemetry.EnginePhaseSelectNs),
		cAllocNs:          h(telemetry.EnginePhaseAllocNs),
		cAllocPrepNs:      h(telemetry.AllocSubPrepNs),
		cAllocScanNs:      h(telemetry.AllocSubScanNs),
		cAllocCommitNs:    h(telemetry.AllocSubCommitNs),
		cEvalsIncremental: u(telemetry.EngineEvalsIncremental),
		cEvalsRebuild:     u(telemetry.EngineEvalsRebuild),
		cEvalsReference:   u(telemetry.EngineEvalsReference),
		cDirtyNets:        h(telemetry.EngineDirtyNets),
		cGoodnessHits:     u(telemetry.GoodnessCacheHits),
		cGoodnessMisses:   u(telemetry.GoodnessCacheMisses),
		cScanVacancies:    u(telemetry.ScanVacancies),
		cScanBBox:         u(telemetry.ScanPrunedBBox),
		cScanSuffix:       u(telemetry.ScanPrunedSuffix),
		cScanBailed:       u(telemetry.ScanBailedExact),
		cScanSkipped:      u(telemetry.ScanSkippedBucket),
		cScanRows:         u(telemetry.ScanRowsVisited),
		cScanScored:       u(telemetry.ScanScored),
		cCostFull:         u(telemetry.CostFullEvals),
		cCostDirty:        u(telemetry.CostDirtyEvals),
		cCostFallback:     u(telemetry.CostDirtyFallbackEvals),
		cCongestBins:      u(telemetry.CongestBinUpdates),
		cCongestRebuilds:  u(telemetry.CongestRebuilds),
		cTimingUpdates:    float64(telemetry.TimingConeCells.Count()),
		cTimingCone:       h(telemetry.TimingConeCells),
		cTimingRebuilds:   u(telemetry.TimingRebuilds),
		cExPosted:         u(telemetry.ExchangePosted),
		cExAdopted:        u(telemetry.ExchangeAdopted),
		cExRejected:       u(telemetry.ExchangeRejected),
		cExRestores:       u(telemetry.SpeculationRestores),
		cFramesSent:       u(telemetry.TransportSentFrames),
		cBytesSent:        u(telemetry.TransportSentBytes),
		cAllocBytes:       float64(rt[0].Value.Uint64()),
		cGCCycles:         float64(rt[1].Value.Uint64()),
	}
}

// span is one timed call into a layer: its name, interval, parent, and the
// process-counter deltas over the interval.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // -1 for the workload root
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	SelfNs   int64              `json:"self_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// structural spans group the layer spans of one workload, one repetition,
// or one set-up; their self time is the benchmark's own glue.
var structural = map[string]bool{"workload": true, "rep": true, "setup": true}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced run executes the same code with no span bookkeeping.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	starts []counters
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	c := readCounters()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	t.starts = append(t.starts, c)
	return id
}

// end closes a span and returns its counter deltas.
func (t *tracer) end(id int) counters {
	if t == nil || id < 0 {
		return counters{}
	}
	c := readCounters()
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = now
	var d counters
	for i := range c {
		d[i] = c[i] - t.starts[id][i]
		if d[i] != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]float64)
			}
			s.Counters[counterNames[i]] = d[i]
		}
	}
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// spanDurations groups span durations (ms) by name.
func spanDurations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e6)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, lo, hi int64
	for i, iv := range ivs {
		if i > 0 && iv[0] <= hi {
			hi = max(hi, iv[1])
			continue
		}
		total += hi - lo
		lo, hi = iv[0], iv[1]
	}
	return total + hi - lo
}

// setSelfTimes fills each span's self time: its duration minus the part of
// its interval its children cover (children may overlap: the service's
// jobs run concurrently).
func setSelfTimes(spans []span) {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i := range spans {
		spans[i].SelfNs = spans[i].EndNs - spans[i].StartNs - covered(kids[i])
	}
}

// unaccounted is the share of the workload's wall time during which no
// layer span was open — time only the benchmark's own glue explains.
// Without concurrency it equals 1 − Σ layer self time ÷ workload wall.
func unaccounted(spans []span) float64 {
	var root int64
	var layers [][2]int64
	for _, s := range spans {
		switch {
		case s.Name == "workload":
			root += s.EndNs - s.StartNs
		case !structural[s.Name]:
			layers = append(layers, [2]int64{s.StartNs, s.EndNs})
		}
	}
	return ratio(float64(root-covered(layers)), float64(root))
}

// writeSpans writes the spans, self times filled in, as JSON.
func writeSpans(path string, spans []span) error {
	setSelfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

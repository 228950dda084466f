package core_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/mpi"
	"simevo/internal/parallel"
	"simevo/internal/telemetry"
)

// engineGlobals is a reading of the engine-family globals, mapped onto
// the snapshot fields they are the process-wide view of. Histogram
// fields read the histogram's sum; counts holds each histogram's sample
// count, in the order of countHists.
type engineGlobals struct {
	view   telemetry.EngineSnapshot
	counts [7]uint64
}

var countHists = []*telemetry.Histogram{
	telemetry.EnginePhaseEvalNs, telemetry.EnginePhaseSelectNs, telemetry.EnginePhaseAllocNs,
	telemetry.AllocSubPrepNs, telemetry.AllocSubScanNs, telemetry.AllocSubCommitNs,
	telemetry.EngineDirtyNets,
}

func readEngineGlobals() engineGlobals {
	sum := func(h *telemetry.Histogram) uint64 { return uint64(h.Sum()) }
	g := engineGlobals{view: telemetry.EngineSnapshot{
		Iterations:        telemetry.EngineIterations.Load(),
		EvalNs:            sum(telemetry.EnginePhaseEvalNs),
		SelectNs:          sum(telemetry.EnginePhaseSelectNs),
		AllocNs:           sum(telemetry.EnginePhaseAllocNs),
		AllocPrepNs:       sum(telemetry.AllocSubPrepNs),
		AllocScanNs:       sum(telemetry.AllocSubScanNs),
		AllocCommitNs:     sum(telemetry.AllocSubCommitNs),
		IncrementalEvals:  telemetry.EngineEvalsIncremental.Load(),
		FullRebuilds:      telemetry.EngineEvalsRebuild.Load() + telemetry.EngineEvalsReference.Load(),
		DirtyNets:         sum(telemetry.EngineDirtyNets),
		ScanVacancies:     telemetry.ScanVacancies.Load(),
		ScanPrunedBBox:    telemetry.ScanPrunedBBox.Load(),
		ScanPrunedSuffix:  telemetry.ScanPrunedSuffix.Load(),
		ScanBailedExact:   telemetry.ScanBailedExact.Load(),
		ScanScored:        telemetry.ScanScored.Load(),
		ScanSkippedBucket: telemetry.ScanSkippedBucket.Load(),
		ScanRowsVisited:   telemetry.ScanRowsVisited.Load(),
		TimingRebuilds:    telemetry.TimingRebuilds.Load(),
		CongestBinUpdates: telemetry.CongestBinUpdates.Load(),
		CongestRebuilds:   telemetry.CongestRebuilds.Load(),
	}}
	for i, h := range countHists {
		g.counts[i] = h.Count()
	}
	return g
}

// since returns the change from before to g.
func (g engineGlobals) since(before engineGlobals) engineGlobals {
	d := engineGlobals{view: combine(g.view, before.view, -1)}
	for i := range d.counts {
		d.counts[i] = g.counts[i] - before.counts[i]
	}
	return d
}

// combine returns a + sign·b fieldwise over the snapshot's uint64 fields.
func combine(a, b telemetry.EngineSnapshot, sign int) telemetry.EngineSnapshot {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if sign < 0 {
			va.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
		} else {
			va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
		}
	}
	return a
}

// globalView restricts a run snapshot to what the globals carry: Evals
// is the sum of the evaluation kinds.
func globalView(s telemetry.EngineSnapshot) telemetry.EngineSnapshot {
	s.Evals = 0
	return s
}

// untimed zeroes the phase-time fields: the counts a run repeats exactly.
func untimed(s telemetry.EngineSnapshot) telemetry.EngineSnapshot {
	s.EvalNs, s.SelectNs, s.AllocNs = 0, 0, 0
	s.AllocPrepNs, s.AllocScanNs, s.AllocCommitNs = 0, 0, 0
	return s
}

// samples is the sample rule: per histogram of countHists, the samples
// the snapshot total stands for. Every iteration is one sample of each
// select, allocate and allocation sub-phase timer; the evaluate timer
// takes Step's evaluations (one per iteration) and finals more (Run's
// last evaluation); every incremental evaluation is one dirty-net sample.
func samples(s telemetry.EngineSnapshot, finals uint64) [7]uint64 {
	it := s.Iterations
	return [7]uint64{it + finals, it, it, it, it, it, s.IncrementalEvals}
}

// TestPublishDerivesGlobalsFromSnapshots pins the single write path: the
// engine-family globals move by exactly the run snapshots' progress. It
// runs three wire+power+delay+congestion engines on goroutines, then a
// Type II run on the simulated cluster, then both at once. The Type II
// slaves' snapshots stay inside their ranks, so the solo run measures the
// Type II share of the globals; the concurrent phase must reproduce every
// count of the two solo phases. It is sequential on purpose: nothing else
// in the test binary may run an engine while it reads the globals.
func TestPublishDerivesGlobalsFromSnapshots(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePowerDelayCongest)
	cfg.MaxIters = 12
	cfg.Seed = 25
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := mpi.FastEthernet()
	off := false
	opt := parallel.Options{Procs: 3, Net: &net, MeasureCompute: &off}

	// engines runs three engines concurrently and returns their summed
	// snapshots and their final congestion costs.
	engines := func() (telemetry.EngineSnapshot, []int64) {
		var sum telemetry.EngineSnapshot
		var overflow []int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng := prob.NewEngine(uint64(i))
				res := eng.Run()
				tel := res.Telemetry
				want := core.Profile{Eval: time.Duration(tel.EvalNs), Select: time.Duration(tel.SelectNs), Alloc: time.Duration(tel.AllocNs)}
				if res.Profile != want || eng.Profile() != want {
					t.Errorf("engine %d: profile %+v, snapshot phase times %+v", i, res.Profile, want)
				}
				mu.Lock()
				sum = combine(sum, globalView(tel), 1)
				overflow = append(overflow, int64(eng.Costs().Congest))
				mu.Unlock()
			}()
		}
		wg.Wait()
		return sum, overflow
	}

	// Engines alone: every global, phase times included, equals the sum.
	before := readEngineGlobals()
	sumA, overflow := engines()
	dA := readEngineGlobals().since(before)
	if dA.view != sumA {
		t.Errorf("engines: globals moved by\n %+v\nsnapshots sum to\n %+v", dA.view, sumA)
	}
	if want := samples(sumA, 3); dA.counts != want {
		t.Errorf("engines: histogram samples %v, want %v", dA.counts, want)
	}
	if got := telemetry.CongestOverflow.Load(); !slices.Contains(overflow, got) {
		t.Errorf("congestion overflow gauge %d, want one engine's last %v", got, overflow)
	}

	// Type II alone: every rank steps once per iteration, and the master
	// evaluates the final merge with a direct, untimed EvaluateCosts.
	// Every evaluation rebuilds the STA and the congestion grid once.
	before = readEngineGlobals()
	resB, err := parallel.RunTypeII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	dB := readEngineGlobals().since(before)
	if want := uint64(opt.Procs * resB.Iters); dB.view.Iterations != want {
		t.Errorf("type II: %d iterations published, want %d ranks × %d", dB.view.Iterations, opt.Procs, resB.Iters)
	}
	evals := dB.view.IncrementalEvals + dB.view.FullRebuilds
	if want := uint64(opt.Procs*resB.Iters + 1); evals != want || dB.view.TimingRebuilds != want || dB.view.CongestRebuilds != want {
		t.Errorf("type II: %d evaluations, %d STA and %d grid rebuilds published, want %d each",
			evals, dB.view.TimingRebuilds, dB.view.CongestRebuilds, want)
	}
	if want := samples(dB.view, 0); dB.counts != want {
		t.Errorf("type II: histogram samples %v, want %v", dB.counts, want)
	}
	if master := globalView(resB.Telemetry); !covers(dB.view, master) {
		t.Errorf("type II: globals moved by\n %+v\nless than the master's snapshot\n %+v", dB.view, master)
	}

	// Both at once: the counts repeat the solo phases exactly; the phase
	// times cover the engines' and the Type II master's.
	before = readEngineGlobals()
	var resC *parallel.Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resC, err = parallel.RunTypeII(prob, opt)
	}()
	sumC, _ := engines()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	dC := readEngineGlobals().since(before)
	if got, want := untimed(dC.view), untimed(combine(sumC, dB.view, 1)); got != want {
		t.Errorf("concurrent: globals moved by\n %+v\nwant\n %+v", got, want)
	}
	if want := combine(sumC, globalView(resC.Telemetry), 1); !covers(dC.view, want) {
		t.Errorf("concurrent: phase times\n %+v\nless than the snapshots'\n %+v", dC.view, want)
	}
	for i := range dC.counts {
		if dC.counts[i] != dA.counts[i]+dB.counts[i] {
			t.Errorf("concurrent: histogram samples %v, want %v + %v", dC.counts, dA.counts, dB.counts)
			break
		}
	}

	// Publishing allocates nothing, whichever branches it takes.
	var prev telemetry.EngineSnapshot
	cur := combine(sumA, telemetry.EngineSnapshot{CongestRebuilds: 1}, 1)
	if n := testing.AllocsPerRun(100, func() { cur.Publish(&prev, false, 3, 4) }); n != 0 {
		t.Errorf("Publish allocates %v times per call", n)
	}
}

// covers reports whether every field of a is at least b's.
func covers(a, b telemetry.EngineSnapshot) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Uint() < vb.Field(i).Uint() {
			return false
		}
	}
	return true
}

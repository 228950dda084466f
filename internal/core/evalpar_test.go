package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestParallelEvalMatchesReferenceAllCircuits asserts the tentpole
// invariant of the parallel goodness evaluation on every bundled
// benchmark: the incremental engine with EvalWorkers > 1 (fan-out forced
// down to a single cell) follows bitwise the trajectory of the serial
// from-scratch reference mode.
func TestParallelEvalMatchesReferenceAllCircuits(t *testing.T) {
	oldMin := evalMinCells
	evalMinCells = 1
	defer func() { evalMinCells = oldMin }()

	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(scratch bool, evalWorkers int) *Result {
			cfg := DefaultConfig(fuzzy.WirePower)
			cfg.MaxIters = 6
			cfg.Seed = 99
			cfg.DisableIncremental = scratch
			cfg.EvalWorkers = evalWorkers
			p, err := NewProblem(ckt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p.NewEngine(0).Run()
		}
		ref := run(true, 0)
		par := run(false, 4)
		if ref.BestMu != par.BestMu {
			t.Fatalf("%s: best μ diverged: reference %v, parallel eval %v", name, ref.BestMu, par.BestMu)
		}
		if ref.Best.Fingerprint() != par.Best.Fingerprint() {
			t.Fatalf("%s: best placements diverged", name)
		}
		for i := range ref.MuTrace {
			if ref.MuTrace[i] != par.MuTrace[i] {
				t.Fatalf("%s: μ trace diverged at %d: %v vs %v", name, i, ref.MuTrace[i], par.MuTrace[i])
			}
		}
	}
}

// TestGoodnessCacheMatchesReference pins serial goodness evaluation in
// incremental mode (excluding lengths read from the wire.Incremental
// mirror, with a frequent mirror rebuild) against the reference mode that
// re-collects every pin.
func TestGoodnessCacheMatchesReference(t *testing.T) {
	run := func(scratch bool) *Result {
		p := testProblem(t, fuzzy.WirePower, 30)
		p.Cfg.DisableIncremental = scratch
		p.Cfg.FullEvalEvery = 11
		return p.NewEngine(0).Run()
	}
	ref := run(true)
	inc := run(false)
	if ref.BestMu != inc.BestMu || ref.Best.Fingerprint() != inc.Best.Fingerprint() {
		t.Fatalf("incremental goodness diverged: best μ %v vs %v", ref.BestMu, inc.BestMu)
	}
}

// TestPoolRetiresOnContextCancel asserts the leak fix: an engine abandoned
// mid-run retires its pool workers as soon as the run context is
// cancelled, well before the idle timer would reap them.
func TestPoolRetiresOnContextCancel(t *testing.T) {
	oldMin := allocScanMinVacancies
	allocScanMinVacancies = 1
	defer func() { allocScanMinVacancies = oldMin }()

	p := testProblem(t, fuzzy.WirePower, 1<<30)
	p.Cfg.AllocWorkers = 4
	p.Cfg.EvalWorkers = 4
	eng := p.NewEngine(0)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		eng.RunContext(ctx, nil)
		close(done)
	}()

	// Let the run spin the pool up, then abandon it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() <= before+1 {
		if time.Now().After(deadline) {
			t.Fatal("pool workers never spawned")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	// Workers must exit on the cancelled context — the 2s idle timer must
	// not be what reaps them, so require quiescence well under it.
	deadline = time.Now().Add(1 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive 1s after cancel (started with %d)",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

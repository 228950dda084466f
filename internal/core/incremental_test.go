package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestIncrementalReproducesReferenceTrajectory asserts the tentpole
// invariant: a full run on the incremental net-cost engine follows
// bitwise the same trajectory as the from-scratch reference mode — same
// μ trace, same best solution, same best μ — for both estimator-relevant
// objective sets.
func TestIncrementalReproducesReferenceTrajectory(t *testing.T) {
	for _, obj := range []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay} {
		iters := 25
		if obj == fuzzy.WirePowerDelay {
			iters = 12
		}
		run := func(disable bool) *Result {
			p := testProblem(t, obj, iters)
			p.Cfg.DisableIncremental = disable
			// A short checksum interval exercises the rebuild path mid-run.
			p.Cfg.FullEvalEvery = 7
			return p.NewEngine(0).Run()
		}
		ref := run(true)
		inc := run(false)
		if ref.BestMu != inc.BestMu {
			t.Fatalf("obj %v: best μ diverged: reference %v, incremental %v", obj, ref.BestMu, inc.BestMu)
		}
		if ref.Best.Fingerprint() != inc.Best.Fingerprint() {
			t.Fatalf("obj %v: best placements diverged", obj)
		}
		if len(ref.MuTrace) != len(inc.MuTrace) {
			t.Fatalf("obj %v: trace lengths %d vs %d", obj, len(ref.MuTrace), len(inc.MuTrace))
		}
		for i := range ref.MuTrace {
			if ref.MuTrace[i] != inc.MuTrace[i] {
				t.Fatalf("obj %v: μ trace diverged at %d: %v vs %v",
					obj, i, ref.MuTrace[i], inc.MuTrace[i])
			}
		}
	}
}

// TestParallelEvalMatchesReferenceAllCircuits runs wp on every bundled
// benchmark and requires the incremental engine to follow the
// DisableIncremental reference bitwise: best μ, best placement and the
// whole μ trace.
func TestParallelEvalMatchesReferenceAllCircuits(t *testing.T) {
	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(scratch bool) *Result {
			cfg := DefaultConfig(fuzzy.WirePower)
			cfg.MaxIters = 6
			cfg.Seed = 99
			cfg.DisableIncremental = scratch
			p, err := NewProblem(ckt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p.NewEngine(0).Run()
		}
		ref := run(true)
		inc := run(false)
		if ref.BestMu != inc.BestMu {
			t.Fatalf("%s: best μ diverged: reference %v, incremental %v", name, ref.BestMu, inc.BestMu)
		}
		if ref.Best.Fingerprint() != inc.Best.Fingerprint() {
			t.Fatalf("%s: best placements diverged", name)
		}
		for i := range ref.MuTrace {
			if ref.MuTrace[i] != inc.MuTrace[i] {
				t.Fatalf("%s: μ trace diverged at %d: %v vs %v", name, i, ref.MuTrace[i], inc.MuTrace[i])
			}
		}
	}
}

// TestParallelWpdAllocMatchesReferenceAllCircuits runs wpd on every
// bundled benchmark, step by step, and requires the incremental engine to
// report bitwise the costs, μ and placement of the DisableIncremental
// reference after every Step.
func TestParallelWpdAllocMatchesReferenceAllCircuits(t *testing.T) {
	for _, name := range gen.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			ckt, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			iters := 6
			if name == "s3330" {
				iters = 3 // the big circuit dominates the -race budget
			}
			mk := func(disable bool) *Engine {
				cfg := DefaultConfig(fuzzy.WirePowerDelay)
				cfg.MaxIters = iters
				cfg.Seed = 2006
				cfg.DisableIncremental = disable
				p, err := NewProblem(ckt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p.NewEngine(0)
			}
			ref := mk(true)
			inc := mk(false)
			for i := 0; i < iters; i++ {
				ref.Step()
				inc.Step()
				if ref.Costs() != inc.Costs() {
					t.Fatalf("iter %d: costs diverged:\n reference   %+v\n incremental %+v",
						i, ref.Costs(), inc.Costs())
				}
				if ref.Mu() != inc.Mu() {
					t.Fatalf("iter %d: μ diverged: %v vs %v", i, ref.Mu(), inc.Mu())
				}
				if ref.Placement().Fingerprint() != inc.Placement().Fingerprint() {
					t.Fatalf("iter %d: placements diverged", i)
				}
			}
		})
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

// TestMuTraceRingCap asserts the trace ring keeps the most recent
// evaluations in order, and that recording can be disabled entirely.
func TestMuTraceRingCap(t *testing.T) {
	full := testProblem(t, fuzzy.WirePower, 20)
	ef := full.NewEngine(0)
	rf := ef.Run()

	capped := testProblem(t, fuzzy.WirePower, 20)
	capped.Cfg.MuTraceCap = 5
	ec := capped.NewEngine(0)
	rc := ec.Run()

	if len(rc.MuTrace) != 5 {
		t.Fatalf("capped trace has %d entries, want 5", len(rc.MuTrace))
	}
	tail := rf.MuTrace[len(rf.MuTrace)-5:]
	for i := range tail {
		if rc.MuTrace[i] != tail[i] {
			t.Fatalf("ring entry %d = %v, want %v (tail of full trace)", i, rc.MuTrace[i], tail[i])
		}
	}

	off := testProblem(t, fuzzy.WirePower, 20)
	off.Cfg.DisableMuTrace = true
	ro := off.NewEngine(0).Run()
	if len(ro.MuTrace) != 0 {
		t.Fatalf("disabled trace recorded %d entries", len(ro.MuTrace))
	}
	if ro.BestMu != rf.BestMu {
		t.Fatalf("trace recording changed the trajectory: %v vs %v", ro.BestMu, rf.BestMu)
	}
}

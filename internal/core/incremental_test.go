package core

import (
	"context"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// runRebuildingEvery runs p's engine to completion, replacing the
// placement object after every n-th step: the incremental engine then
// rebuilds its net-length mirror at the next evaluation instead of
// draining the coordinate journal. The reference engine has no mirror and
// follows its usual trajectory.
func runRebuildingEvery(p *Problem, n int) *Result {
	eng := p.NewEngine(0)
	steps := 0
	return eng.RunContext(context.Background(), func(IterStats) {
		if steps++; steps%n == 0 {
			eng.SetPlacement(eng.Placement().Clone())
		}
	})
}

// TestIncrementalReproducesReferenceTrajectory asserts the tentpole
// invariant: a full run on the incremental net-cost engine follows
// bitwise the same trajectory as the from-scratch reference mode — same
// μ trace, same best solution, same best μ — for the wp and wpd objective
// sets.
func TestIncrementalReproducesReferenceTrajectory(t *testing.T) {
	for _, obj := range []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay} {
		iters := 25
		if obj == fuzzy.WirePowerDelay {
			iters = 12
		}
		run := func(disable bool) *Result {
			p := testProblem(t, obj, iters)
			p.Cfg.DisableIncremental = disable
			// Exercise the rebuild path mid-run.
			return runRebuildingEvery(p, 7)
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

// TestEvalMatchesReferenceAllCircuits runs wp on every bundled
// benchmark and requires the incremental engine to follow the
// DisableIncremental reference bitwise: best μ, best placement and the
// whole μ trace.
func TestEvalMatchesReferenceAllCircuits(t *testing.T) {
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

// TestWpdAllocMatchesReferenceAllCircuits runs wpd on every
// bundled benchmark, step by step, and requires the incremental engine to
// report bitwise the costs, μ and placement of the DisableIncremental
// reference after every Step.
func TestWpdAllocMatchesReferenceAllCircuits(t *testing.T) {
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
		return runRebuildingEvery(p, 11)
	}
	ref := run(true)
	inc := run(false)
	if ref.BestMu != inc.BestMu || ref.Best.Fingerprint() != inc.Best.Fingerprint() {
		t.Fatalf("incremental goodness diverged: best μ %v vs %v", ref.BestMu, inc.BestMu)
	}
}

// TestDrainOnlyMatchesReference runs the incremental engine with no
// rebuild after the first evaluation — every later evaluation drains the
// coordinate journal — for well over a hundred evaluations of s1196 under
// wire+power+delay, and requires every μ to equal the DisableIncremental
// reference bitwise: the drained mirror does not drift.
func TestDrainOnlyMatchesReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long reference run; skipped under -short and -race")
	}
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) *Result {
		cfg := DefaultConfig(fuzzy.WirePowerDelay)
		cfg.MaxIters = 130
		cfg.Seed = 2006
		cfg.DisableIncremental = disable
		p, err := NewProblem(ckt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p.NewEngine(0).Run()
	}
	ref := run(true)
	inc := run(false)
	if got := inc.Telemetry.FullRebuilds; got != 1 {
		t.Fatalf("incremental engine rebuilt its mirror %d times, want only the first evaluation", got)
	}
	if len(ref.MuTrace) != len(inc.MuTrace) || len(inc.MuTrace) < 130 {
		t.Fatalf("trace lengths %d vs %d, want ≥ 130 evaluations", len(ref.MuTrace), len(inc.MuTrace))
	}
	for i := range ref.MuTrace {
		if ref.MuTrace[i] != inc.MuTrace[i] {
			t.Fatalf("μ diverged at evaluation %d: reference %v, incremental %v", i, ref.MuTrace[i], inc.MuTrace[i])
		}
	}
	if ref.Best.Fingerprint() != inc.Best.Fingerprint() {
		t.Fatal("best placements diverged")
	}
}

// TestMuTraceRingCap asserts the trace keeps every evaluation in order,
// with no cap dropping the oldest ones, and that recording can be
// disabled entirely without changing the trajectory.
func TestMuTraceRingCap(t *testing.T) {
	full := testProblem(t, fuzzy.WirePower, 20)
	ef := full.NewEngine(0)
	rf := ef.Run()
	// One evaluation per iteration plus the final one.
	if len(rf.MuTrace) != rf.Iters+1 {
		t.Fatalf("trace has %d entries, want %d", len(rf.MuTrace), rf.Iters+1)
	}
	if got := rf.MuTrace[len(rf.MuTrace)-1]; got != ef.Mu() {
		t.Fatalf("last trace entry %v, want the final evaluation %v", got, ef.Mu())
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

// TestSpeculativeAdoptAvoidsFullRebuild proves the exchange path keeps
// the wire.Incremental mirror warm: adopting a foreign placement through
// AdoptPlacement on a warm engine must not trigger a single mirror
// rebuild, while an adoption on a cold engine (the clone fallback) must.
// Counted via Engine.Telemetry().FullRebuilds.
func TestSpeculativeAdoptAvoidsFullRebuild(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 200)

	// Exchange partners share the reference starting placement (the
	// paper's Type III construction), so their row shapes are identical
	// and the slot-delta patch path applies.
	donor := p.EngineFromReference(2)
	for i := 0; i < 4; i++ {
		donor.Step()
	}
	foreign := donor.BestPlacement()
	if foreign == nil {
		t.Fatal("donor produced no best placement")
	}

	eng := p.EngineFromReference(1)
	for i := 0; i < 4; i++ {
		eng.Step()
	}
	eng.EvaluateCosts()
	base := eng.Telemetry().FullRebuilds

	eng.AdoptPlacement(foreign)
	eng.EvaluateCosts()
	eng.Step()
	eng.EvaluateCosts()
	if got := eng.Telemetry().FullRebuilds; got != base {
		t.Fatalf("warm adoption rebuilt the mirror %d times, want 0", got-base)
	}
	// Sanity: the patched state still matches a scratch evaluation.
	ref := p.EngineFrom(eng.Placement().Clone(), nil)
	ref.EvaluateCosts()
	if got, want := eng.Costs(), ref.Costs(); got != want {
		t.Fatalf("post-adoption costs diverged from scratch: %+v != %+v", got, want)
	}

	// Control: with the mirror stale, adoption takes the clone fallback
	// and the next evaluation rebuilds from scratch.
	eng.SetPlacement(eng.Placement().Clone())
	eng.AdoptPlacement(foreign)
	eng.EvaluateCosts()
	if got := eng.Telemetry().FullRebuilds; got == base {
		t.Fatal("stale-mirror AdoptPlacement did not rebuild the mirror; the control is broken")
	}
	if eng.Placement() == foreign || eng.Placement().Fingerprint() != foreign.Fingerprint() {
		t.Fatal("clone-fallback adoption did not install a copy of the foreign placement")
	}
}

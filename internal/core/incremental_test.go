package core

import (
	"testing"

	"simevo/internal/fuzzy"
)

// TestMuTraceKeepsEveryEvaluation asserts the trace keeps every
// evaluation in order, with no cap dropping the oldest ones, and that
// recording can be disabled entirely without changing the trajectory.
func TestMuTraceKeepsEveryEvaluation(t *testing.T) {
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

// TestWarmAdoptPatchAvoidsFullRebuild proves the exchange path keeps
// the wire.Incremental mirror warm: adopting a foreign placement through
// AdoptPlacement on a warm engine must not trigger a single mirror
// rebuild, while an adoption on a cold engine (the clone fallback) must.
// Counted via Engine.Telemetry().FullRebuilds.
func TestWarmAdoptPatchAvoidsFullRebuild(t *testing.T) {
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

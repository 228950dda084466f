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

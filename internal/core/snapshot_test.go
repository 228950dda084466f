package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/rng"
)

// snapshotObjectiveSets are the four estimator-relevant objective
// combinations the speculative-exchange machinery must restore exactly.
var snapshotObjectiveSets = []fuzzy.Objectives{
	fuzzy.WirePower,
	fuzzy.WirePowerDelay,
	fuzzy.WirePowerCongest,
	fuzzy.WirePowerDelayCongest,
}

// scratchCosts evaluates the engine's current placement from scratch on a
// fresh engine — the reference the warm incremental state is held to.
func scratchCosts(t *testing.T, p *Problem, e *Engine) fuzzy.Costs {
	t.Helper()
	ref := p.EngineFrom(e.Placement().Clone(), nil)
	ref.EvaluateCosts()
	return ref.Costs()
}

// TestSnapshotRestoreEquivalence is the randomized
// Snapshot -> mutate -> Restore -> evaluate equivalence check: after
// rewinding a speculated-ahead engine, its placement, costs, and best
// tracking must bitwise equal the snapshot's, and every subsequent
// incremental evaluation must bitwise match a from-scratch evaluation of
// the same placement — proving the restored placement and the warm
// net-length mirror's coordinate journal are consistent.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, obj := range snapshotObjectiveSets {
		obj := obj
		t.Run(obj.String(), func(t *testing.T) {
			t.Parallel()
			p := testProblem(t, obj, 60)
			eng := p.NewEngine(1)
			r := rng.New(0xD1CE + uint64(obj))
			for i := 0; i < 2+r.Intn(4); i++ {
				eng.Step()
			}
			eng.EvaluateCosts() // settle pending allocation mutations

			snap := eng.SnapshotSearch()
			wantFP := eng.Placement().Fingerprint()
			wantCosts, wantMu := eng.Costs(), eng.Mu()
			wantBestMu, wantBest := eng.BestMu(), eng.BestPlacement()

			// Speculate ahead: a randomized window of real iterations that
			// mutate the placement, the net-length mirror, and (possibly)
			// the best tracking.
			for i := 0; i < 1+r.Intn(8); i++ {
				eng.Step()
			}

			eng.RestoreSearch(snap)
			if got := eng.Placement().Fingerprint(); got != wantFP {
				t.Fatalf("placement not restored: fingerprint %x != %x", got, wantFP)
			}
			if eng.Costs() != wantCosts || eng.Mu() != wantMu {
				t.Fatalf("costs not restored: %+v / μ=%v, want %+v / μ=%v",
					eng.Costs(), eng.Mu(), wantCosts, wantMu)
			}
			if eng.BestMu() != wantBestMu || eng.BestPlacement() != wantBest {
				t.Fatalf("best tracking not restored: μ=%v (%p), want μ=%v (%p)",
					eng.BestMu(), eng.BestPlacement(), wantBestMu, wantBest)
			}
			// The restored incremental state must evaluate bitwise
			// identical to a scratch rebuild — immediately and across
			// further search steps.
			eng.EvaluateCosts()
			if got, want := eng.Costs(), scratchCosts(t, p, eng); got != want {
				t.Fatalf("post-restore evaluation diverged from scratch: %+v != %+v", got, want)
			}
			for i := 0; i < 6; i++ {
				eng.Step()
				eng.EvaluateCosts()
				if got, want := eng.Costs(), scratchCosts(t, p, eng); got != want {
					t.Fatalf("step %d after restore diverged from scratch: %+v != %+v", i, got, want)
				}
			}
		})
	}
}

// TestSnapshotRestoreReferenceMode exercises the clone fallback: an engine
// running the from-scratch reference pipeline has no warm incremental
// state, so RestoreSearch must fall back to replacing the placement and
// still land exactly on the snapshot.
func TestSnapshotRestoreReferenceMode(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 40)
	p.Cfg.DisableIncremental = true
	eng := p.NewEngine(1)
	for i := 0; i < 3; i++ {
		eng.Step()
	}
	eng.EvaluateCosts()
	snap := eng.SnapshotSearch()
	wantFP := eng.Placement().Fingerprint()
	wantMu := eng.Mu()
	for i := 0; i < 4; i++ {
		eng.Step()
	}
	eng.RestoreSearch(snap)
	if got := eng.Placement().Fingerprint(); got != wantFP {
		t.Fatalf("placement not restored: fingerprint %x != %x", got, wantFP)
	}
	if eng.Mu() != wantMu {
		t.Fatalf("μ not restored: %v != %v", eng.Mu(), wantMu)
	}
	// A second restore from the same snapshot must work too (the snapshot
	// owns its clone).
	eng.Step()
	eng.RestoreSearch(snap)
	if got := eng.Placement().Fingerprint(); got != wantFP {
		t.Fatalf("second restore broke: fingerprint %x != %x", got, wantFP)
	}
}

// TestSpeculativeAdoptAvoidsFullRebuild proves the speculative exchange
// path keeps the wire.Incremental mirror warm: adopting a foreign placement
// through AdoptPlacement on a warm engine and rejecting a speculation
// through RestoreSearch must not trigger a single mirror rebuild, while an
// adoption on a cold engine (the clone fallback) must. Counted via
// Engine.Telemetry().FullRebuilds.
func TestSpeculativeAdoptAvoidsFullRebuild(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 200)
	// Keep the periodic mirror rebuild out of the way: only adoption
	// semantics should decide between a rebuild and a journal sync here.
	p.Cfg.FullEvalEvery = 1 << 20

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

	snap := eng.SnapshotSearch()
	eng.AdoptPlacement(foreign)
	eng.EvaluateCosts()
	eng.Step()
	eng.RestoreSearch(snap)
	eng.EvaluateCosts()
	if got := eng.Telemetry().FullRebuilds; got != base {
		t.Fatalf("speculative adopt/reject rebuilt the mirror %d times, want 0", got-base)
	}
	// Sanity: the restored state still matches a scratch evaluation.
	if got, want := eng.Costs(), scratchCosts(t, p, eng); got != want {
		t.Fatalf("post-reject costs diverged from scratch: %+v != %+v", got, want)
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

package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestCongestTrajectoriesAllCircuits is the congestion tentpole's
// equivalence gate: on every bundled benchmark, the incremental engine —
// integer bin grid binned off the wire.Incremental mirror's pin boxes —
// must report bitwise the costs, μ, and placements of the
// DisableIncremental reference (grid binned off the raw placement) with
// the full wire+power+delay+congestion objective set active. Replacing the
// placement object every fourth step forces mid-run mirror rebuilds.
func TestCongestTrajectoriesAllCircuits(t *testing.T) {
	for _, name := range gen.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			ckt, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			iters := 10
			mk := func(disable bool) *Engine {
				cfg := DefaultConfig(fuzzy.WirePowerDelayCongest)
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
				if i%4 == 3 {
					inc.SetPlacement(inc.Placement().Clone())
				}
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
			if ref.Costs().Congest != inc.Costs().Congest {
				t.Fatal("congestion costs diverged")
			}
			tel := inc.Telemetry()
			if tel.CongestBinUpdates == 0 || tel.CongestRebuilds == 0 {
				t.Errorf("telemetry: congestion grid recorded no activity (%d updates, %d rebuilds)",
					tel.CongestBinUpdates, tel.CongestRebuilds)
			}
		})
	}
}

// TestCongestTrajectoryMatchesReference runs the wire+power+congestion set
// (no delay) on s1196 with the default grid, step by step against the
// DisableIncremental reference: the congestion CellScore and NetScore
// hooks feed goodness and the trial weights without an STA alongside.
func TestCongestTrajectoryMatchesReference(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(fuzzy.WirePowerCongest)
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
			t.Fatalf("iter %d: costs diverged: %+v vs %+v", i, ref.Costs(), inc.Costs())
		}
		if ref.Mu() != inc.Mu() {
			t.Fatalf("iter %d: μ diverged: %v vs %v", i, ref.Mu(), inc.Mu())
		}
	}
}

// TestCongestTrajectory10k runs the incremental-vs-scratch equivalence
// on a generated 10k-cell circuit — the scale tier where the O(dirty)
// grid update, not the O(nets) rebuild, carries the run.
func TestCongestTrajectory10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cell equivalence run skipped in -short mode")
	}
	ckt, err := gen.Generate(gen.ScaledParams("t10k", 10_000, 10))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 2
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(fuzzy.WirePowerCongest)
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
			t.Fatalf("iter %d: costs diverged: %+v vs %+v", i, ref.Costs(), inc.Costs())
		}
		if ref.Placement().Fingerprint() != inc.Placement().Fingerprint() {
			t.Fatalf("iter %d: placements diverged", i)
		}
	}
}

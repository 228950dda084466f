package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestMultiObjectiveCostTrajectoriesAllCircuits is the cost-pipeline
// equivalence satellite: on every bundled benchmark circuit, the
// incremental engine (net lengths from the wire.Incremental mirror) must
// report bitwise-identical fuzzy.Costs — wirelength, power, and delay —
// after every single evaluation of a WirePowerDelay run, compared against
// the Config.DisableIncremental from-scratch reference. Replacing the
// placement object every fourth step forces mid-run mirror rebuilds.
func TestMultiObjectiveCostTrajectoriesAllCircuits(t *testing.T) {
	for _, name := range gen.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			ckt, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			iters := 10
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
			}
			ref.EvaluateCosts()
			inc.EvaluateCosts()
			if ref.Costs() != inc.Costs() || ref.BestMu() != inc.BestMu() {
				t.Fatalf("final state diverged: %+v / μ %v vs %+v / μ %v",
					ref.Costs(), ref.BestMu(), inc.Costs(), inc.BestMu())
			}
			if ref.BestPlacement().Fingerprint() != inc.BestPlacement().Fingerprint() {
				t.Fatal("best placements diverged")
			}
		})
	}
}

// TestScanPruneSlackRegression pins the s3330/seed-11 case that exposed
// an unsound ScanBest prune: the suffix-bound estimate (a reassociated
// float sum) overshot the true cost of the cell's own vacated slot —
// sitting exactly 1 ULP under the nextafter seed bound — by a few ULPs,
// pruning every vacancy and dropping the allocation into the
// width-violation fallback while the reference scan kept the slot. With
// the scanSlack-deflated estimates the incremental trajectory must track
// the reference bit for bit well past the old divergence (iteration 1).
func TestScanPruneSlackRegression(t *testing.T) {
	ckt, err := gen.Benchmark("s3330")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 25
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(fuzzy.WirePowerDelay)
		cfg.MaxIters = iters
		cfg.Seed = 11
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

	// Telemetry is unconditional, so the bitwise equality above already
	// ran with it fully enabled; the counters must also have tracked the
	// run — an empty snapshot would mean the hot paths were not observed.
	tel := inc.Telemetry()
	if tel.Iterations != iters {
		t.Errorf("telemetry: iterations = %d, want %d", tel.Iterations, iters)
	}
	if tel.IncrementalEvals == 0 {
		t.Error("telemetry: incremental engine recorded no incremental evals")
	}
	if tel.ScanVacancies == 0 || tel.ScanScored == 0 {
		t.Errorf("telemetry: ScanBest stats empty (vacancies %d, scored %d)",
			tel.ScanVacancies, tel.ScanScored)
	}
	if tel.ScanPrunedBBox+tel.ScanPrunedSuffix+tel.ScanBailedExact == 0 {
		t.Error("telemetry: ScanBest pruned nothing over 25 s3330 iterations")
	}
	if tel.ScanSkippedBucket == 0 {
		t.Error("telemetry: sharded scan cut no bucket regions wholesale")
	}
	if tel.ScanRowsVisited == 0 {
		t.Error("telemetry: sharded scan entered no row buckets")
	}
	if tel.CostFull != tel.Evals {
		t.Errorf("telemetry: %d pipeline Full() calls for %d evaluations", tel.CostFull, tel.Evals)
	}
	if tel.TimingRebuilds != tel.Evals {
		t.Errorf("telemetry: wpd run recorded %d STA rebuilds for %d evaluations", tel.TimingRebuilds, tel.Evals)
	}
	if tel.EvalNs == 0 || tel.AllocNs == 0 {
		t.Errorf("telemetry: phase timers empty (eval %d ns, alloc %d ns)", tel.EvalNs, tel.AllocNs)
	}
	refTel := ref.Telemetry()
	if refTel.Evals == 0 || refTel.IncrementalEvals != 0 {
		t.Errorf("telemetry: reference engine evals = %+v, want reference-only", refTel.Evals)
	}
}

// TestWirePowerCostTrajectory covers the two-objective mode the paper's
// Tables 1-2 run: the wire and power costs must stay bitwise equal between
// the incremental and reference modes step by step, across a mirror
// rebuild forced every sixth step.
func TestWirePowerCostTrajectory(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 15
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(fuzzy.WirePower)
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
		if i%6 == 5 {
			inc.SetPlacement(inc.Placement().Clone())
		}
		ref.Step()
		inc.Step()
		if ref.Costs() != inc.Costs() {
			t.Fatalf("iter %d: costs diverged: %+v vs %+v", i, ref.Costs(), inc.Costs())
		}
	}
}

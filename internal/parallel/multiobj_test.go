package parallel

import (
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestTypeIIDeltaWirePowerDelay is the warm-patch satellite for the
// multi-objective pipeline: under Type II delta broadcasts a slave's
// net-length mirror is never rebuilt — the slot deltas feed the coordinate
// journal and only the dirty nets are re-estimated. The trajectory must
// equal the from-scratch reference engine (DisableIncremental), bit for
// bit, so a warm-patched wire/power/delay evaluation is provably
// indistinguishable from one rebuilt from first principles each iteration.
func TestTypeIIDeltaWirePowerDelay(t *testing.T) {
	const iters, procs = 15, 3
	ref := runTypeIIRef(t, fuzzy.WirePowerDelay, iters, 2006, true, detOpts(procs))
	delta := runTypeIIRef(t, fuzzy.WirePowerDelay, iters, 2006, false, detOpts(procs))
	sameTrajectory(t, "delta-broadcast incremental", ref, delta)
	// On this small circuit most iterations move over a third of the
	// cells, so the codec may fall back to full frames — the master must
	// never send more than a full frame per iteration, but equal bytes are
	// fine (the byte-saving property is asserted at scale in delta_test.go).
	if sent, full := delta.RankStats[0].BytesSent, iters*fullFrameBytes(delta, procs); sent > full {
		t.Fatalf("delta broadcasts sent %d bytes, %d iterations of full frames %d — regression",
			sent, iters, full)
	}
}

// TestTypeIIWirePowerDelayParallelEval runs the three-objective Type II
// strategy with the goodness evaluation fanned across the engine pool on
// every rank — the configuration the race job exercises for the delay
// scorer (per-cell criticality reads against cached gain terms) — and
// asserts the trajectory equals the all-serial run.
func TestTypeIIWirePowerDelayParallelEval(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "par-eval-wpd", Gates: 430, DFFs: 16, PIs: 8, POs: 8, Depth: 10, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(evalWorkers, allocWorkers int) *Result {
		cfg := core.DefaultConfig(fuzzy.WirePowerDelay)
		cfg.MaxIters = 8
		cfg.Seed = 5
		cfg.EvalWorkers = evalWorkers
		cfg.AllocWorkers = allocWorkers
		prob, err := core.NewProblem(ckt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunTypeII(prob, detOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(0, -1)
	par := run(3, 3)
	if serial.BestMu != par.BestMu {
		t.Fatalf("Type II wpd with EvalWorkers diverged: best μ %v vs %v", par.BestMu, serial.BestMu)
	}
	if serial.Best.Fingerprint() != par.Best.Fingerprint() {
		t.Fatal("Type II wpd with EvalWorkers reached a different best placement")
	}
}

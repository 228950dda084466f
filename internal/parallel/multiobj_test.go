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
// equal the full-broadcast run AND the from-scratch reference engine
// (DisableIncremental + FullBroadcast), bit for bit, so a warm-patched
// wire/power/delay evaluation is provably indistinguishable from one
// rebuilt from first principles each iteration.
func TestTypeIIDeltaWirePowerDelay(t *testing.T) {
	run := func(fullBcast, disableInc bool) *Result {
		prob := testProblem(t, fuzzy.WirePowerDelay, 15, 2006)
		prob.Cfg.DisableIncremental = disableInc
		opt := detOpts(3)
		opt.FullBroadcast = fullBcast
		res, err := RunTypeII(prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(true, true) // reference engine, full broadcasts
	full := run(true, false)
	delta := run(false, false)
	for _, tc := range []struct {
		name string
		res  *Result
	}{{"full-broadcast incremental", full}, {"delta-broadcast incremental", delta}} {
		if tc.res.BestMu != ref.BestMu {
			t.Fatalf("%s: best μ %v != reference %v", tc.name, tc.res.BestMu, ref.BestMu)
		}
		if tc.res.Best.Fingerprint() != ref.Best.Fingerprint() {
			t.Fatalf("%s: best placement diverged from reference", tc.name)
		}
		if len(tc.res.MuTrace) != len(ref.MuTrace) {
			t.Fatalf("%s: trace length %d vs %d", tc.name, len(tc.res.MuTrace), len(ref.MuTrace))
		}
		for i := range ref.MuTrace {
			if tc.res.MuTrace[i] != ref.MuTrace[i] {
				t.Fatalf("%s: μ trace diverged at %d: %v vs %v",
					tc.name, i, tc.res.MuTrace[i], ref.MuTrace[i])
			}
		}
	}
	// On this small circuit most iterations move over a third of the
	// cells, so the codec may fall back to full encodings — the delta mode
	// must never cost more than the full mode, but equal bytes are fine
	// (the byte-saving property is asserted at scale in delta_test.go).
	if delta.RankStats[0].BytesSent > full.RankStats[0].BytesSent {
		t.Fatalf("delta broadcasts sent %d bytes, full %d — regression",
			delta.RankStats[0].BytesSent, full.RankStats[0].BytesSent)
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

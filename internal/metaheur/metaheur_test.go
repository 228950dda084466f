package metaheur

import (
	"math"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/mpi"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/telemetry"
)

func testProblem(t testing.TB, iters int) *core.Problem {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "mh-t", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 321,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = iters
	cfg.Seed = 77
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func boolPtr(b bool) *bool { return &b }

func detNet() *mpi.NetModel {
	n := mpi.FastEthernet()
	return &n
}

// --- shared evaluator ---

func TestSwapDeltaMatchesFullRecompute(t *testing.T) {
	prob := testProblem(t, 10)
	eng := prob.EngineFromReference(0)
	place := eng.Placement()
	ev := newEvaluator(prob)
	ev.full(place)
	rnd := rng.New(5)
	movable := prob.Ckt.Movable()

	for i := 0; i < 50; i++ {
		a, b := randomPair(movable, rnd)
		before := ev.energy()
		delta := ev.swapDelta(place, a, b)
		ev.applySwap(place, a, b)
		afterIncremental := ev.energy()

		// The incremental totals must match the delta estimate closely
		// (both use the hinted coordinates).
		if math.Abs((afterIncremental-before)-delta) > 1e-6 {
			t.Fatalf("swap %d: delta %v but energy moved %v", i, delta, afterIncremental-before)
		}
		// And a full recompute from scratch must agree with the
		// incremental totals while coordinates are exact.
		place.Recompute()
		ev.full(place)
	}
}

func TestEvaluatorMuMatchesEngine(t *testing.T) {
	prob := testProblem(t, 10)
	eng := prob.EngineFromReference(0)
	eng.EvaluateCosts()
	ev := newEvaluator(prob)
	ev.full(eng.Placement())
	if math.Abs(ev.mu(eng.Placement())-eng.Mu()) > 1e-12 {
		t.Fatalf("metaheur μ %v != engine μ %v", ev.mu(eng.Placement()), eng.Mu())
	}
}

func TestRequireWirePower(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "mh-d", Gates: 60, DFFs: 4, PIs: 4, POs: 4, Depth: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePowerDelay)
	cfg.MaxIters = 5
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSA(prob, SAConfig{Moves: 10}); err == nil {
		t.Fatal("three-objective SA accepted")
	}
	if _, err := RunTS(prob, TSConfig{Iters: 10}); err == nil {
		t.Fatal("three-objective TS accepted")
	}
	if _, err := RunGA(prob, GAConfig{Generations: 2}); err == nil {
		t.Fatal("three-objective GA accepted")
	}
}

// --- SA ---

func TestSAImproves(t *testing.T) {
	prob := testProblem(t, 10)
	dirtyBefore := telemetry.CostDirtyEvals.Load()
	res, err := RunSA(prob, SAConfig{Moves: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Accepted swaps fold their few touched nets into the wire/power
	// summation trees instead of recomputing every net.
	if telemetry.CostDirtyEvals.Load() == dirtyBefore {
		t.Fatal("SA never took the cost pipeline's dirty-net fold")
	}
	if res.BestMu <= 0.1 {
		t.Fatalf("SA best μ = %v, want clear improvement over 0 (initial)", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("SA best placement invalid: %v", err)
	}
	if res.BestCosts.Wire >= prob.Ref.Wire {
		t.Fatalf("SA did not improve wirelength: %v vs %v", res.BestCosts.Wire, prob.Ref.Wire)
	}
}

func TestSADeterministic(t *testing.T) {
	run := func() float64 {
		prob := testProblem(t, 10)
		res, err := RunSA(prob, SAConfig{Moves: 5000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res.BestMu
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed SA differs: %v vs %v", a, b)
	}
}

func TestParallelSA(t *testing.T) {
	prob := testProblem(t, 10)
	res, err := RunParallelSA(prob, ParallelSAConfig{
		SA:             SAConfig{Moves: 8000, Seed: 2},
		Procs:          3,
		Net:            detNet(),
		MeasureCompute: boolPtr(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0.1 {
		t.Fatalf("parallel SA best μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("parallel SA best invalid: %v", err)
	}
}

// --- TS ---

func TestTSImproves(t *testing.T) {
	prob := testProblem(t, 10)
	res, err := RunTS(prob, TSConfig{Iters: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0.1 {
		t.Fatalf("TS best μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("TS best placement invalid: %v", err)
	}
}

func TestTSTabuPreventsImmediateReversal(t *testing.T) {
	prob := testProblem(t, 10)
	cfg := TSConfig{Iters: 1, Candidates: 8, Tenure: 5, Seed: 4}
	cfg.defaults()
	ts := newTS(prob, cfg)
	cands := ts.sampleCandidates(nil)
	deltas := make([]float64, len(cands))
	for i, cand := range cands {
		deltas[i] = ts.ev.swapDelta(ts.place, cand[0], cand[1])
	}
	i := ts.pickBest(cands, deltas)
	if i < 0 {
		t.Skip("no admissible candidate in sample")
	}
	ts.applyCandidate(cands[i])
	a, b := cands[i][0], cands[i][1]
	if ts.tabuUntil[a] <= ts.iter || ts.tabuUntil[b] <= ts.iter {
		t.Fatal("moved cells not marked tabu")
	}
	// A worsening candidate involving a tabu cell must not be picked.
	ts.iter++
	cand2 := [][2]netlist.CellID{{a, b}}
	d2 := []float64{+1.0}
	if got := ts.pickBest(cand2, d2); got != -1 {
		t.Fatalf("tabu worsening move admitted (got %d)", got)
	}
	// But an improving tabu move is admitted by aspiration.
	d2[0] = -1.0
	if got := ts.pickBest(cand2, d2); got != 0 {
		t.Fatalf("aspiration did not admit improving tabu move (got %d)", got)
	}
}

func TestParallelTSMatchesSerial(t *testing.T) {
	// Type I invariant for TS: candidate evaluation distribution must not
	// change the trajectory.
	serialProb := testProblem(t, 10)
	serial, err := RunTS(serialProb, TSConfig{Iters: 60, Candidates: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		prob := testProblem(t, 10)
		res, err := RunParallelTS(prob, ParallelTSConfig{
			TS:             TSConfig{Iters: 60, Candidates: 32, Seed: 8},
			Procs:          p,
			Net:            detNet(),
			MeasureCompute: boolPtr(false),
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.BestMu != serial.BestMu {
			t.Fatalf("p=%d: parallel TS μ %v != serial %v", p, res.BestMu, serial.BestMu)
		}
		if res.Best.Fingerprint() != serial.Best.Fingerprint() {
			t.Fatalf("p=%d: parallel TS trajectory diverged", p)
		}
	}
}

// --- GA ---

func TestGAImproves(t *testing.T) {
	prob := testProblem(t, 10)
	res, err := RunGA(prob, GAConfig{Pop: 16, Generations: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0.02 {
		t.Fatalf("GA best μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("GA best placement invalid: %v", err)
	}
}

func TestOrderCrossoverIsPermutation(t *testing.T) {
	prob := testProblem(t, 10)
	cfg := GAConfig{Pop: 4, Generations: 1, Seed: 7}
	cfg.defaults()
	g := newGA(prob, cfg, 1)
	for i := 0; i < 50; i++ {
		child := g.orderCrossover(g.pop[0].perm, g.pop[1].perm)
		seen := make(map[netlist.CellID]bool, len(child))
		for _, id := range child {
			if seen[id] {
				t.Fatalf("crossover produced duplicate cell %d", id)
			}
			seen[id] = true
		}
		if len(seen) != prob.Ckt.NumMovable() {
			t.Fatalf("crossover lost cells: %d of %d", len(seen), prob.Ckt.NumMovable())
		}
	}
}

func TestGenomeDecodeValid(t *testing.T) {
	prob := testProblem(t, 10)
	base := append([]netlist.CellID(nil), prob.Ckt.Movable()...)
	place := decodeGenome(prob, base)
	if err := place.Validate(); err != nil {
		t.Fatalf("decoded genome invalid: %v", err)
	}
	if !place.WidthOK(0.5) {
		t.Fatal("greedy decode produced grossly unbalanced rows")
	}
}

func TestParallelGA(t *testing.T) {
	prob := testProblem(t, 10)
	res, err := RunParallelGA(prob, ParallelGAConfig{
		GA:             GAConfig{Pop: 12, Generations: 20, Seed: 8},
		Procs:          3,
		MigrateEvery:   5,
		Migrants:       2,
		Net:            detNet(),
		MeasureCompute: boolPtr(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0.02 {
		t.Fatalf("island GA best μ = %v", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("island GA best invalid: %v", err)
	}
}

func TestMigrantCodecRoundTrip(t *testing.T) {
	prob := testProblem(t, 10)
	cfg := GAConfig{Pop: 4, Generations: 1, Seed: 9}
	cfg.defaults()
	g := newGA(prob, cfg, 2)
	data := encodeMigrants(g.pop[:2])
	out, err := decodeMigrants(prob, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d migrants, want 2", len(out))
	}
	for i := range out {
		for j := range out[i].perm {
			if out[i].perm[j] != g.pop[i].perm[j] {
				t.Fatalf("migrant %d genome differs at %d", i, j)
			}
		}
	}
	if _, err := decodeMigrants(prob, data[:7]); err == nil {
		t.Fatal("truncated migrants accepted")
	}
}

// --- cross-heuristic comparison ---

func TestAllHeuristicsProduceComparableQuality(t *testing.T) {
	// Sanity check for the Section 7 comparison: with reasonable budgets
	// every heuristic should land in a sane μ band on the same problem.
	prob := testProblem(t, 150)
	sime := prob.NewEngine(0).Run()

	prob2 := testProblem(t, 10)
	sa, err := RunSA(prob2, SAConfig{Moves: 40000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunTS(prob2, TSConfig{Iters: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ga, err := RunGA(prob2, GAConfig{Pop: 20, Generations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("μ: SimE %.3f, SA %.3f, TS %.3f, GA %.3f",
		sime.BestMu, sa.BestMu, ts.BestMu, ga.BestMu)
	for name, mu := range map[string]float64{
		"SA": sa.BestMu, "TS": ts.BestMu,
	} {
		if mu < sime.BestMu*0.4 {
			t.Errorf("%s μ %.3f implausibly far below SimE %.3f", name, mu, sime.BestMu)
		}
	}
	_ = ga // GA converges slower; presence and validity are checked above
}

// TestScratchModeMatchesIncremental pins the DisableIncremental escape
// hatch for the metaheuristics: SA and TS must follow bitwise-identical
// trajectories with the cached evaluator and the from-scratch reference.
func TestScratchModeMatchesIncremental(t *testing.T) {
	runSA := func(scratch bool) *Result {
		prob := testProblem(t, 50)
		prob.Cfg.DisableIncremental = scratch
		res, err := RunSA(prob, SAConfig{Moves: 3000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sa1, sa2 := runSA(false), runSA(true)
	if sa1.BestMu != sa2.BestMu || sa1.Best.Fingerprint() != sa2.Best.Fingerprint() {
		t.Fatalf("SA diverged across modes: μ %v vs %v", sa1.BestMu, sa2.BestMu)
	}

	runTS := func(scratch bool) *Result {
		prob := testProblem(t, 50)
		prob.Cfg.DisableIncremental = scratch
		res, err := RunTS(prob, TSConfig{Iters: 40, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ts1, ts2 := runTS(false), runTS(true)
	if ts1.BestMu != ts2.BestMu || ts1.Best.Fingerprint() != ts2.Best.Fingerprint() {
		t.Fatalf("TS diverged across modes: μ %v vs %v", ts1.BestMu, ts2.BestMu)
	}
}

// TestGAPooledFitnessEquivalence pins the parallel fitness evaluation to
// the serial reference: same seeds, same generations, identical best
// solution either way.
func TestGAPooledFitnessEquivalence(t *testing.T) {
	prob := testProblem(t, 50)
	run := func(workers int) *Result {
		cfg := GAConfig{Pop: 12, Generations: 6, Seed: 7, Workers: workers}
		res, err := RunGA(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(0)
	pooled := run(3)
	if serial.BestMu != pooled.BestMu {
		t.Fatalf("pooled GA diverged: serial best mu %v, pooled %v", serial.BestMu, pooled.BestMu)
	}
	if serial.Best.Fingerprint() != pooled.Best.Fingerprint() {
		t.Fatal("pooled GA reached a different best placement")
	}
	if serial.BestCosts != pooled.BestCosts {
		t.Fatalf("pooled GA costs diverged: %+v vs %+v", serial.BestCosts, pooled.BestCosts)
	}
}

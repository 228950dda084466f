package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"simevo/internal/cputime"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

func testProblem(t testing.TB, obj fuzzy.Objectives, iters int) *Problem {
	t.Helper()
	return sizedProblem(t, obj, 150, 10, iters)
}

// sizedProblem is testProblem's generated circuit at another size.
func sizedProblem(t testing.TB, obj fuzzy.Objectives, gates, dffs, iters int) *Problem {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "core-t", Gates: gates, DFFs: dffs, PIs: 8, POs: 8, Depth: 10, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(obj)
	cfg.MaxIters = iters
	cfg.Seed = 12345
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidates(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "v", Gates: 30, DFFs: 2, PIs: 3, POs: 3, Depth: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = 0
	if _, err := NewProblem(ckt, cfg); err == nil {
		t.Fatal("MaxIters=0 accepted")
	}
	cfg = DefaultConfig(0)
	cfg.MaxIters = 10
	if _, err := NewProblem(ckt, cfg); err == nil {
		t.Fatal("empty objective set accepted")
	}
}

func TestEvaluateProducesSaneState(t *testing.T) {
	p := testProblem(t, fuzzy.WirePowerDelay, 10)
	e := p.NewEngine(0)
	e.EvaluateCosts()
	if e.Mu() < 0 || e.Mu() > 1 {
		t.Fatalf("μ = %v out of [0,1]", e.Mu())
	}
	c := e.Costs()
	if c.Wire <= 0 || c.Power <= 0 || c.Delay <= 0 {
		t.Fatalf("non-positive costs: %+v", c)
	}
	if p.Lower.Wire <= 0 || p.Lower.Power <= 0 || p.Lower.Delay <= 0 {
		t.Fatalf("non-positive normalization bounds: %+v", p.Lower)
	}
	// Stream 0 starts exactly at the reference placement.
	if math.Abs(c.Wire-p.Ref.Wire) > 1e-9 {
		t.Fatalf("stream-0 initial wire cost %v != reference %v", c.Wire, p.Ref.Wire)
	}
}

func TestGoodnessInRange(t *testing.T) {
	p := testProblem(t, fuzzy.WirePowerDelay, 10)
	e := p.NewEngine(0)
	e.EvaluateCosts()
	vals := e.ComputeGoodness(p.Ckt.Movable(), nil)
	for i, g := range vals {
		if g < 0 || g > 1 || math.IsNaN(g) {
			t.Fatalf("goodness[%d] = %v", i, g)
		}
	}
}

func TestStepKeepsPlacementValid(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 10)
	e := p.NewEngine(0)
	for i := 0; i < 5; i++ {
		st := e.Step()
		if err := e.Placement().Validate(); err != nil {
			t.Fatalf("iteration %d corrupted placement: %v", i, err)
		}
		if st.Selected < 0 || st.Selected > p.Ckt.NumMovable() {
			t.Fatalf("selected %d out of range", st.Selected)
		}
		if st.Mu < 0 || st.Mu > 1 {
			t.Fatalf("iteration μ = %v", st.Mu)
		}
	}
}

func TestRunImprovesQuality(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 80)
	e := p.NewEngine(0)
	res := e.Run()
	if len(res.MuTrace) == 0 {
		t.Fatal("empty μ trace")
	}
	first, best := res.MuTrace[0], res.BestMu
	if best <= first {
		t.Fatalf("SimE did not improve: first μ %v, best μ %v", first, best)
	}
	// Meaningful improvement, not noise.
	if best < first*1.05 {
		t.Fatalf("improvement too small: %v -> %v", first, best)
	}
	if res.Best == nil {
		t.Fatal("no best placement recorded")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best placement invalid: %v", err)
	}
}

func TestRunImprovesWirelength(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 80)
	e := p.NewEngine(0)
	e.EvaluateCosts()
	w0 := e.Costs().Wire
	res := e.Run()
	if res.BestCosts.Wire >= w0 {
		t.Fatalf("wirelength did not improve: %v -> %v", w0, res.BestCosts.Wire)
	}
}

func TestDeterministicTrajectory(t *testing.T) {
	run := func() (uint64, float64) {
		p := testProblem(t, fuzzy.WirePower, 15)
		e := p.NewEngine(3)
		res := e.Run()
		return res.Best.Fingerprint(), res.BestMu
	}
	f1, m1 := run()
	f2, m2 := run()
	if f1 != f2 || m1 != m2 {
		t.Fatalf("same-seed runs diverged: (%x, %v) vs (%x, %v)", f1, m1, f2, m2)
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 15)
	r1 := p.NewEngine(1).Run()
	r2 := p.NewEngine(2).Run()
	if r1.Best.Fingerprint() == r2.Best.Fingerprint() {
		t.Fatal("different streams produced identical best placements")
	}
}

func TestSelectionRespectsevaluatedGoodness(t *testing.T) {
	// With bias -1 every cell's threshold is <= 0... threshold = g - 1 <= 0,
	// and Float64() >= 0, so selection is near-total: every cell with
	// g < 1 + eps is selected unless Float64 lands exactly below. Use the
	// statistical property instead: avg selected fraction ≈ 1 - avg
	// goodness for bias 0.
	p := testProblem(t, fuzzy.WirePower, 10)
	e := p.NewEngine(0)
	sumSel, sumGood := 0.0, 0.0
	const iters = 10
	for i := 0; i < iters; i++ {
		st := e.Step()
		sumSel += float64(st.Selected) / float64(p.Ckt.NumMovable())
		sumGood += st.AvgGood
	}
	fracSel := sumSel / iters
	expect := 1 - sumGood/iters
	if math.Abs(fracSel-expect) > 0.08 {
		t.Fatalf("selected fraction %v, expected ≈ %v (1 - avg goodness)", fracSel, expect)
	}
}

func TestBiasReducesSelection(t *testing.T) {
	mkEngine := func(bias float64) float64 {
		ckt, err := gen.Generate(gen.Params{
			Name: "b", Gates: 150, DFFs: 10, PIs: 8, POs: 8, Depth: 10, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(fuzzy.WirePower)
		cfg.MaxIters = 6
		cfg.Seed = 1
		cfg.Bias = bias
		p, err := NewProblem(ckt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := p.NewEngine(0)
		total := 0
		for i := 0; i < 6; i++ {
			total += e.Step().Selected
		}
		return float64(total)
	}
	low := mkEngine(0.3)
	high := mkEngine(-0.3)
	if low >= high {
		t.Fatalf("positive bias should select fewer cells: %v vs %v", low, high)
	}
}

func TestDomainRestriction(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 10)
	e := p.NewEngine(0)
	rows := []int{0, 1, 2}
	e.DomainFromRows(rows)
	inRows := map[netlist.CellID]bool{}
	var cells []netlist.CellID
	for _, r := range rows {
		for _, id := range e.Placement().Row(r) {
			inRows[id] = true
		}
		cells = append(cells, e.Placement().Row(r)...)
	}
	// DomainFromRows collects the rows' cells as a sorted set.
	want := slices.Clone(cells)
	slices.Sort(want)
	if !slices.Equal(e.domain, want) {
		t.Fatalf("DomainFromRows = %v, the rows' cells sorted = %v", e.domain, want)
	}
	for i := 0; i < 3; i++ {
		e.EvaluateCosts()
		e.goodsOut = e.ComputeGoodness(e.domain, e.goodsOut)
		sel := e.selectCells()
		for _, id := range sel {
			if !inRows[id] {
				t.Fatalf("selected cell %d outside domain rows", id)
			}
		}
		e.allocate(sel)
		// All moved cells must still be in the domain rows.
		for _, id := range sel {
			ref := e.Placement().Slot(id)
			found := false
			for _, r := range rows {
				if int(ref.Row) == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell %d allocated to row %d outside domain", id, ref.Row)
			}
		}
		e.iter++
	}
	if err := e.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after domain iterations: %v", err)
	}
}

// TestAdoptPlacement installs another engine's best solution through
// SetPlacement, the Type III adoption path, on a fresh engine and on one
// that has run: the next evaluation must reproduce the source's best μ
// bit for bit, and the adopting engine must not write to the source.
func TestAdoptPlacement(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 20)
	e1 := p.NewEngine(0)
	e2 := p.NewEngine(1)
	e1.Run()
	fp := e1.BestPlacement().Fingerprint()
	for round := 0; round < 2; round++ {
		e2.SetPlacement(e1.BestPlacement().Clone())
		e2.EvaluateCosts()
		if math.Float64bits(e2.Mu()) != math.Float64bits(e1.BestMu()) {
			t.Fatalf("round %d: adopted placement μ %v != source %v", round, e2.Mu(), e1.BestMu())
		}
		for i := 0; i < 3; i++ {
			e2.Step()
		}
		if e1.BestPlacement().Fingerprint() != fp {
			t.Fatalf("round %d: the adopting engine mutated the source placement", round)
		}
	}
}

func TestTargetMuStops(t *testing.T) {
	// Learn an achievable quality, then verify a run targeting half of it
	// stops early.
	ref := testProblem(t, fuzzy.WirePower, 40).NewEngine(0).Run()
	if ref.BestMu <= 0 {
		t.Fatalf("reference run achieved μ = %v", ref.BestMu)
	}
	p := testProblem(t, fuzzy.WirePower, 40)
	p.Cfg.TargetMu = ref.BestMu / 2
	res := p.NewEngine(0).Run()
	if res.Iters >= ref.Iters {
		t.Fatalf("target-μ stop did not shorten the run: %d vs %d iters", res.Iters, ref.Iters)
	}
	if res.BestMu < p.Cfg.TargetMu {
		t.Fatalf("stopped below target: %v < %v", res.BestMu, p.Cfg.TargetMu)
	}
}

func TestProfileAllocationDominates(t *testing.T) {
	// The paper's Section 4 profiling: allocation ≈ 98% of runtime — a
	// property of the from-scratch trial evaluation the paper (and our
	// DisableIncremental reference mode) uses, so that is the mode pinned
	// here. The incremental net-cost engine exists precisely to break this
	// profile; the companion assertion below checks that it does.
	// The assertion is on the ordering, not a fixed fraction, because CPU
	// contention from parallel test packages skews absolute shares. The
	// circuit is sized so the O(cells · vacancies) reference allocation
	// dwarfs evaluation even with the weighted trial ordering sharpening
	// the reference scan's suffix pruning: about 82% of the reference
	// iteration at 400 gates. At testProblem's 150 gates it is 63%, the
	// share the incremental engine reaches there once its evaluation is
	// incremental too, so that size cannot separate the two profiles.
	//
	// The shares are wall-clock phase times, which a loaded host skews
	// one run at a time. So the two engines run alternately, three times
	// each, under the thread CPU clock, and each engine's shares come from
	// its lowest-CPU run, as in TestIncrementalSpeedupOverReference.
	ref := sizedProblem(t, fuzzy.WirePower, 400, 27, 60)
	ref.Cfg.DisableIncremental = true
	inc := sizedProblem(t, fuzzy.WirePower, 400, 27, 30)
	var best [2]time.Duration
	var shares [2][3]float64 // per engine: eval, select, alloc
	for i := 0; i < 6; i++ {
		mode, p := i%2, ref
		if mode == 1 {
			p = inc
		}
		e := p.NewEngine(0)
		d, _ := cputime.Thread(func() { e.Run() })
		if i < 2 || d < best[mode] {
			best[mode] = d
			eval, sel, alloc := e.Profile().Shares()
			shares[mode] = [3]float64{eval, sel, alloc}
		}
	}
	eval, sel, alloc := shares[0][0], shares[0][1], shares[0][2]
	t.Logf("allocation share: reference %.1f%%, incremental %.1f%%", alloc*100, shares[1][2]*100)
	if alloc < eval || alloc < sel {
		t.Fatalf("allocation share %.1f%% not dominant (eval %.1f%%, select %.1f%%)",
			alloc*100, eval*100, sel*100)
	}
	if alloc < 0.35 {
		t.Fatalf("allocation share %.1f%% implausibly low", alloc*100)
	}

	// The incremental engine must shift the profile: its allocation phase
	// is incomparably cheaper, so the allocation share drops well below
	// the reference mode's.
	if allocInc := shares[1][2]; allocInc >= alloc {
		t.Fatalf("incremental allocation share %.1f%% not below reference %.1f%%",
			allocInc*100, alloc*100)
	}
}

func TestMuTraceMatchesIterations(t *testing.T) {
	p := testProblem(t, fuzzy.WirePower, 12)
	e := p.NewEngine(0)
	res := e.Run()
	// One evaluation per iteration plus the final one.
	if len(res.MuTrace) != res.Iters+1 {
		t.Fatalf("MuTrace length %d, want %d", len(res.MuTrace), res.Iters+1)
	}
}

func TestThreeObjectiveRun(t *testing.T) {
	p := testProblem(t, fuzzy.WirePowerDelay, 40)
	e := p.NewEngine(0)
	e.EvaluateCosts()
	d0 := e.Costs().Delay
	res := e.Run()
	if res.BestMu <= 0 {
		t.Fatal("three-objective run produced μ = 0")
	}
	if res.BestCosts.Delay <= 0 {
		t.Fatal("delay cost missing")
	}
	// Delay should not have exploded while optimizing it.
	if res.BestCosts.Delay > d0*1.5 {
		t.Fatalf("delay regressed badly: %v -> %v", d0, res.BestCosts.Delay)
	}
}

func TestWidthConstraintMaintained(t *testing.T) {
	// The width constraint is meaningful when a row's headroom
	// (alpha * w_avg) exceeds the widest cell; the small test circuit has
	// ~39-site rows, so alpha = 0.2 gives the same relative headroom the
	// paper's circuits get at alpha = 0.1 with ~75-site rows.
	p := testProblem(t, fuzzy.WirePower, 60)
	p.Cfg.Alpha = 0.2
	e := p.NewEngine(0)
	res := e.Run()
	if !res.Best.WidthOK(p.Cfg.Alpha) {
		t.Fatalf("best solution violates width constraint: max %d avg %.1f",
			res.Best.MaxRowWidth(), res.Best.AvgRowWidth())
	}
	// The final (not just best) layout must stay close to the constraint:
	// allocation is a bijection, so transient drift is bounded by roughly
	// one cell width beyond the limit.
	if v := e.Placement().WidthViolation(p.Cfg.Alpha); v > 0.2 {
		t.Fatalf("final width violation %.2f too large", v)
	}
}

func TestAllocOrders(t *testing.T) {
	// Every allocation order must keep placements valid and still improve
	// the solution; different orders must follow different trajectories.
	fps := map[uint64]bool{}
	for _, order := range []AllocOrder{WorstFirst, BestFirst, WidestFirst} {
		p := testProblem(t, fuzzy.WirePower, 20)
		e := p.NewEngine(0)
		e.SetAllocOrder(order)
		res := e.Run()
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("order %d: invalid best placement: %v", order, err)
		}
		if res.BestMu <= 0 {
			t.Fatalf("order %d: no improvement (μ=%v)", order, res.BestMu)
		}
		fps[res.Best.Fingerprint()] = true
	}
	if len(fps) < 2 {
		t.Fatal("allocation orders did not diversify the trajectories")
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

// The equivalence matrix holds every speedup of the engine to one oracle:
// the Config.DisableIncremental reference, which re-derives net lengths,
// goodness and trial costs from scratch. Each row is a serial run on the
// incremental engine, compared after every Step with the same run on the
// reference engine. internal/parallel holds the strategy and transport
// half of the matrix, with the same row fields and the same checks.

// equivRow is one serial run of the matrix.
type equivRow struct {
	circuit string // a catalog name, or "hand", "core-t" or "t10k" (equivCircuit)
	obj     string // wp, wpd, wpc or wpdc (equivObjectives)
	seed    uint64
	iters   int
	// rebuild replaces the placement object before every rebuild-th Step,
	// so the incremental engine rebuilds its net-length mirror there
	// instead of draining the coordinate journal. 0 is drain-only: the
	// mirror is built once, at the first evaluation.
	rebuild int
	// rows restricts the domain to a Type II row set, re-derived before
	// every Step, instead of the full movable set.
	rows bool
	// bins is the congestion grid's bins per side (0: the default grid).
	bins int
	// long rows are skipped under -short; slow ones also under -race.
	long, slow bool
	// check runs row-specific assertions on the finished engines.
	check func(t *testing.T, ref, inc *Engine)
}

func (r equivRow) name() string {
	s := fmt.Sprintf("%s/%s/seed%d/%dit", r.circuit, r.obj, r.seed, r.iters)
	if r.rebuild > 0 {
		s += fmt.Sprintf("/rebuild%d", r.rebuild)
	} else {
		s += "/drain"
	}
	if r.rows {
		s += "/rows"
	}
	if r.bins > 0 {
		s += fmt.Sprintf("/bins%d", r.bins)
	}
	return s
}

var equivObjectives = map[string]fuzzy.Objectives{
	"wp":   fuzzy.WirePower,
	"wpd":  fuzzy.WirePowerDelay,
	"wpc":  fuzzy.WirePowerCongest,
	"wpdc": fuzzy.WirePowerDelayCongest,
}

// evalEqBench is a hand-built netlist for the corner cases of net
// evaluation. It has a 1-pin net (dang, read by nothing), 2- and 3-pin
// nets, a 7-pin net (n1), a cell with two pins on one net (n3 = AND(n1,
// n1)), and a flip-flop loop. Cells sharing a row share their y
// coordinate, so pin coordinates coincide on every multi-pin net.
const evalEqBench = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o1)
OUTPUT(o2)
n1 = NAND(a, b)
n2 = NOR(n1, c)
n3 = AND(n1, n1)
n4 = OR(n1, d)
n5 = XOR(n1, n2)
n6 = NOT(n1)
n7 = AND(n3, n4)
n8 = NAND(n5, n6)
n9 = BUF(n7)
q1 = DFF(n8)
n10 = AND(q1, n2)
n11 = OR(n10, n9)
n12 = NOT(n11)
n13 = XNOR(n12, n3)
dang = OR(a, c)
o1 = NOT(n13)
o2 = BUF(n10)
`

// equivRows is the serial half of the matrix.
var equivRows = func() []equivRow {
	var rows []equivRow
	// The hand-built netlist under every objective set, on the full
	// domain and on a row domain.
	for _, obj := range []string{"wp", "wpd", "wpc", "wpdc"} {
		for _, domain := range []bool{false, true} {
			row := equivRow{circuit: "hand", obj: obj, seed: 2006, iters: 20, rebuild: 7, rows: domain}
			if equivObjectives[obj].Has(fuzzy.Congest) {
				row.bins = 8
			}
			rows = append(rows, row)
		}
	}
	rows = append(rows,
		equivRow{circuit: "core-t", obj: "wp", seed: 12345, iters: 30, rebuild: 11},
		equivRow{circuit: "core-t", obj: "wpd", seed: 12345, iters: 12, rebuild: 7},
	)
	// Every catalog circuit under wp, wpd and wpdc.
	for _, name := range gen.Catalog() {
		rows = append(rows,
			equivRow{circuit: name, obj: "wp", seed: 2006, iters: 20, rebuild: 7},
			equivRow{circuit: name, obj: "wpd", seed: 2006, iters: 10, rebuild: 4},
			equivRow{circuit: name, obj: "wpdc", seed: 2006, iters: 10, rebuild: 4, check: checkCongestActivity},
		)
	}
	return append(rows,
		// wpc with the default grid: the congestion goodness and trial
		// weights without an STA alongside.
		equivRow{circuit: "s1196", obj: "wpc", seed: 2006, iters: 20, rebuild: 7},
		equivRow{circuit: "s1196", obj: "wp", seed: 2006, iters: 20, rebuild: 7, rows: true},
		// Well over a hundred drained evaluations: the mirror does not
		// drift (the generic checks require a single mirror build).
		equivRow{circuit: "s1196", obj: "wpd", seed: 2006, iters: 130, long: true, slow: true},
		// The case that exposed an unsound ScanBest prune: the suffix-bound
		// estimate (a reassociated float sum) overshot the true cost of the
		// cell's own vacated slot by a few ULPs, pruning every vacancy and
		// dropping the allocation into the width-violation fallback while
		// the reference scan kept the slot (iteration 1). The scanSlack-
		// deflated estimates keep the trajectories together.
		equivRow{circuit: "s3330", obj: "wpd", seed: 11, iters: 25, check: checkScanTelemetry},
		// The scale tier, where the O(dirty) congestion-grid update rather
		// than the O(nets) rebuild carries the run.
		equivRow{circuit: "t10k", obj: "wpc", seed: 2006, iters: 2, long: true},
	)
}()

// equivCircuit builds a circuit of the matrix by name.
func equivCircuit(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	var ckt *netlist.Circuit
	var err error
	switch name {
	case "hand":
		ckt, err = netlist.ParseBench("evaleq", strings.NewReader(evalEqBench))
	case "core-t": // testProblem's circuit
		ckt, err = gen.Generate(gen.Params{Name: "core-t", Gates: 150, DFFs: 10, PIs: 8, POs: 8, Depth: 10, Seed: 77})
	case "t10k":
		ckt, err = gen.Generate(gen.ScaledParams("t10k", 10_000, 10))
	default:
		ckt, err = gen.Benchmark(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// referenceOf returns p with the from-scratch reference engine selected.
// The copy shares p's read-only tables and canonical start; NewEngine
// reads DisableIncremental when it builds an engine.
func referenceOf(p *Problem) *Problem {
	ref := *p
	ref.Cfg.DisableIncremental = true
	return &ref
}

// TestEquivalenceMatrix runs every serial row of the matrix against the
// DisableIncremental reference. After every Step it requires bitwise-equal
// net lengths, costs, μ, domain, domain goodness and placement; after the
// final evaluation, equal best μ, best placement and μ trace. It also
// pins the mirror's rebuild count to the row's cadence.
func TestEquivalenceMatrix(t *testing.T) {
	for _, row := range equivRows {
		t.Run(row.name(), func(t *testing.T) {
			t.Parallel()
			if row.long && testing.Short() {
				t.Skip("long reference run; skipped under -short")
			}
			if row.slow && raceEnabled {
				t.Skip("long reference run; skipped under -race")
			}
			checkSerialRow(t, row)
		})
	}
}

func checkSerialRow(t *testing.T, row equivRow) {
	cfg := DefaultConfig(equivObjectives[row.obj])
	cfg.MaxIters = row.iters
	cfg.Seed = row.seed
	cfg.CongestBins = row.bins
	p, err := NewProblem(equivCircuit(t, row.circuit), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, inc := referenceOf(p).NewEngine(0), p.NewEngine(0)
	domain := []int{0}
	if n := ref.Placement().NumRows(); n > 2 {
		domain = []int{1, n - 1}
	}
	rebuilds := 1
	for step := 0; step < row.iters; step++ {
		if row.rebuild > 0 && step%row.rebuild == row.rebuild-1 {
			inc.SetPlacement(inc.Placement().Clone())
			rebuilds++
		}
		if row.rows {
			ref.DomainFromRows(domain)
			inc.DomainFromRows(domain)
		}
		ref.Step()
		inc.Step()
		sameEngineState(t, fmt.Sprintf("step %d", step), ref, inc)
	}
	ref.EvaluateCosts()
	inc.EvaluateCosts()
	sameEngineState(t, "final evaluation", ref, inc)
	if math.Float64bits(ref.BestMu()) != math.Float64bits(inc.BestMu()) {
		t.Fatalf("best μ %v, reference %v", inc.BestMu(), ref.BestMu())
	}
	if ref.BestPlacement().Fingerprint() != inc.BestPlacement().Fingerprint() {
		t.Fatal("best placements diverged")
	}
	if !slices.Equal(ref.MuTrace(), inc.MuTrace()) {
		t.Fatal("μ traces diverged")
	}

	// Telemetry is unconditional, so the checks above ran with it on; it
	// must also have tracked the run.
	tel, refTel := inc.Telemetry(), ref.Telemetry()
	if tel.Iterations != uint64(row.iters) || refTel.Iterations != uint64(row.iters) {
		t.Errorf("telemetry: iterations %d (reference %d), want %d", tel.Iterations, refTel.Iterations, row.iters)
	}
	if tel.FullRebuilds != uint64(rebuilds) {
		t.Errorf("incremental engine rebuilt its mirror %d times, want %d", tel.FullRebuilds, rebuilds)
	}
	if tel.IncrementalEvals == 0 && row.iters > 1 {
		t.Error("telemetry: incremental engine recorded no incremental evals")
	}
	if refTel.Evals == 0 || refTel.IncrementalEvals != 0 || refTel.FullRebuilds != refTel.Evals {
		t.Errorf("telemetry: reference engine %d evals, %d incremental, %d rebuilds; want every eval from scratch",
			refTel.Evals, refTel.IncrementalEvals, refTel.FullRebuilds)
	}
	if row.check != nil {
		row.check(t, ref, inc)
	}
}

// sameEngineState fails unless the two engines agree bit for bit on
// every net length, the costs, μ, the domain and its goodness, and the
// placement.
func sameEngineState(t *testing.T, where string, ref, inc *Engine) {
	t.Helper()
	for n := range ref.lengths {
		if math.Float64bits(ref.lengths[n]) != math.Float64bits(inc.lengths[n]) {
			t.Fatalf("%s: net %d length %v, reference %v", where, n, inc.lengths[n], ref.lengths[n])
		}
	}
	if ref.Costs() != inc.Costs() {
		t.Fatalf("%s: costs %+v, reference %+v", where, inc.Costs(), ref.Costs())
	}
	if math.Float64bits(ref.Mu()) != math.Float64bits(inc.Mu()) {
		t.Fatalf("%s: μ %v, reference %v", where, inc.Mu(), ref.Mu())
	}
	if !slices.Equal(ref.domain, inc.domain) {
		t.Fatalf("%s: domains diverged", where)
	}
	for _, id := range ref.domain {
		if math.Float64bits(ref.goodness[id]) != math.Float64bits(inc.goodness[id]) {
			t.Fatalf("%s: cell %d goodness %v, reference %v", where, id, inc.goodness[id], ref.goodness[id])
		}
	}
	if ref.Placement().Fingerprint() != inc.Placement().Fingerprint() {
		t.Fatalf("%s: placements diverged", where)
	}
}

// checkCongestActivity requires the congestion grid to have done work:
// equal costs over an idle grid would prove nothing about its updates.
func checkCongestActivity(t *testing.T, _, inc *Engine) {
	tel := inc.Telemetry()
	if tel.CongestBinUpdates == 0 || tel.CongestRebuilds == 0 {
		t.Errorf("telemetry: congestion grid recorded no activity (%d updates, %d rebuilds)",
			tel.CongestBinUpdates, tel.CongestRebuilds)
	}
}

// checkScanTelemetry requires the pruned vacancy scan, the STA and the
// phase timers to have observed the run.
func checkScanTelemetry(t *testing.T, _, inc *Engine) {
	tel := inc.Telemetry()
	if tel.ScanVacancies == 0 || tel.ScanScored == 0 {
		t.Errorf("telemetry: ScanBest stats empty (vacancies %d, scored %d)", tel.ScanVacancies, tel.ScanScored)
	}
	if tel.ScanPrunedBBox+tel.ScanPrunedSuffix+tel.ScanBailedExact == 0 {
		t.Error("telemetry: ScanBest pruned nothing")
	}
	if tel.ScanSkippedBucket == 0 {
		t.Error("telemetry: sharded scan cut no bucket regions wholesale")
	}
	if tel.ScanRowsVisited == 0 {
		t.Error("telemetry: sharded scan entered no row buckets")
	}
	if tel.TimingRebuilds != tel.Evals {
		t.Errorf("telemetry: %d STA rebuilds for %d evaluations", tel.TimingRebuilds, tel.Evals)
	}
	if tel.EvalNs == 0 || tel.AllocNs == 0 {
		t.Errorf("telemetry: phase timers empty (eval %d ns, alloc %d ns)", tel.EvalNs, tel.AllocNs)
	}
}

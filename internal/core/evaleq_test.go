package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/wire"
)

// evalEqBench is a hand-built netlist for the evaluation equivalence test.
// It has a 1-pin net (dang, read by nothing), 2- and 3-pin nets, a 7-pin
// net (n1), a cell with two pins on one net (n3 = AND(n1, n1)), and a
// flip-flop loop. Cells sharing a row share their y coordinate, so pin
// coordinates coincide on every multi-pin net.
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

// TestEvaluationMatchesReference runs the incremental engine against the
// DisableIncremental reference for 20 Steps and requires, after every
// Step, bitwise-equal net lengths, costs, μ and goodness of every requested
// cell. The matrix covers the wp, wpd and wpc objective sets, the HPWL,
// Steiner and RMST estimators, and two request shapes: the full domain
// and a Type II row domain re-derived before every Step (so the requested
// set changes). The hand-built
// netlist runs the whole matrix; every catalog circuit runs wp with the
// default estimator on the full domain, and s1196 also runs every
// objective set, estimator and request shape.
func TestEvaluationMatchesReference(t *testing.T) {
	hand, err := netlist.ParseBench("evaleq", strings.NewReader(evalEqBench))
	if err != nil {
		t.Fatal(err)
	}
	objs := []fuzzy.Objectives{fuzzy.WirePower, fuzzy.WirePowerDelay, fuzzy.WirePowerCongest}
	ests := []wire.Estimator{wire.HPWL, wire.Steiner, wire.RMST}
	modes := []string{"full", "rows"}
	for _, obj := range objs {
		for _, est := range ests {
			for _, mode := range modes {
				checkEvaluation(t, "hand", hand, obj, est, mode)
			}
		}
	}
	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		checkEvaluation(t, name, ckt, fuzzy.WirePower, wire.Steiner, "full")
		if name != "s1196" {
			continue
		}
		for _, obj := range objs[1:] {
			checkEvaluation(t, name, ckt, obj, wire.Steiner, "full")
		}
		for _, est := range ests {
			for _, mode := range modes {
				if est != wire.Steiner || mode != "full" {
					checkEvaluation(t, name, ckt, fuzzy.WirePower, est, mode)
				}
			}
		}
	}
}

func checkEvaluation(t *testing.T, name string, ckt *netlist.Circuit, obj fuzzy.Objectives, est wire.Estimator, mode string) {
	t.Helper()
	label := fmt.Sprintf("%s/%v/est%d/%s", name, obj, est, mode)
	mk := func(reference bool) *Engine {
		cfg := DefaultConfig(obj)
		cfg.MaxIters = 1 << 20
		cfg.Seed = 2006
		cfg.WireEstimator = est
		cfg.DisableIncremental = reference
		if obj.Has(fuzzy.Congest) {
			cfg.CongestBins = 8
		}
		p, err := NewProblem(ckt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return p.NewEngine(0)
	}
	ref, inc := mk(true), mk(false)
	rows := []int{0}
	if n := ref.Placement().NumRows(); n > 2 {
		rows = []int{1, n - 1}
	}
	for step := 0; step < 20; step++ {
		if step%7 == 6 {
			// Replace the placement object: a mirror rebuild mid-run.
			inc.SetPlacement(inc.Placement().Clone())
		}
		if mode == "rows" {
			ref.DomainFromRows(rows)
			inc.DomainFromRows(rows)
		}
		ref.Step()
		inc.Step()
		where := fmt.Sprintf("%s step %d", label, step)
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
		if len(ref.domain) != len(inc.domain) {
			t.Fatalf("%s: domain sizes %d vs %d", where, len(inc.domain), len(ref.domain))
		}
		for i, id := range ref.domain {
			if inc.domain[i] != id {
				t.Fatalf("%s: domains diverged at %d", where, i)
			}
			if math.Float64bits(ref.Goodness(id)) != math.Float64bits(inc.Goodness(id)) {
				t.Fatalf("%s: cell %d goodness %v, reference %v", where, id, inc.Goodness(id), ref.Goodness(id))
			}
		}
	}
}

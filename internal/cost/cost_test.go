package cost

import (
	"math"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/timing"
	"simevo/internal/wire"
)

func testSetup(t *testing.T) (*netlist.Circuit, *netlist.Levels, []float64, []float64) {
	t.Helper()
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]float64, ckt.NumNets())
	r := rng.New(7)
	for i := range acts {
		acts[i] = 0.5 * r.Float64()
	}
	place := layout.NewRandom(ckt, 0, rng.New(11))
	lengths := wire.NewEvaluator(ckt, wire.Steiner).Lengths(place, nil)
	return ckt, lv, acts, lengths
}

// TestSumTreeUpdateMatchesRebuild is the bitwise contract of the
// weighted-length objectives: folding arbitrary leaf changes in one at a
// time must land on exactly the bits a full bottom-up rebuild produces.
func TestSumTreeUpdateMatchesRebuild(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 2, 3, 17, 64, 1000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 100
		}
		inc := newSumTree(n)
		inc.rebuild(n, func(i int) float64 { return vals[i] })
		for round := 0; round < 50; round++ {
			for k := 0; k < 1+n/10; k++ {
				vals[r.Intn(n)] = r.Float64() * 100
			}
			for i := range vals {
				inc.set(i, vals[i]) // unchanged leaves short-circuit
			}
			ref := newSumTree(n)
			ref.rebuild(n, func(i int) float64 { return vals[i] })
			if inc.value() != ref.value() {
				t.Fatalf("n=%d round=%d: incremental %v != rebuild %v (diff %g)",
					n, round, inc.value(), ref.value(), inc.value()-ref.value())
			}
		}
	}
}

// TestPipelineApplyDirtyMatchesFull drives a wire/power pipeline through
// random dirty-net batches and checks both objectives stay bitwise
// identical to a from-scratch Full over the same lengths. Pipelines with an
// objective that has no summation tree refuse the fold.
func TestPipelineApplyDirtyMatchesFull(t *testing.T) {
	ckt, lv, acts, lengths := testSetup(t)
	model := timing.DefaultModel()
	incPipe := NewPipeline(fuzzy.WirePower, ckt, acts, lv, model)
	refPipe := NewPipeline(fuzzy.WirePower, ckt, acts, lv, model)

	got := incPipe.Full(lengths)
	want := refPipe.Full(lengths)
	if got != want {
		t.Fatalf("initial Full mismatch: %+v vs %+v", got, want)
	}

	r := rng.New(99)
	var dirty []netlist.NetID
	for round := 0; round < 200; round++ {
		dirty = dirty[:0]
		for k := 0; k < 1+r.Intn(20); k++ {
			n := netlist.NetID(r.Intn(ckt.NumNets()))
			lengths[n] = math.Abs(lengths[n] + (r.Float64()-0.5)*40)
			dirty = append(dirty, n)
		}
		got = incPipe.ApplyDirty(dirty, lengths)
		want = refPipe.Full(lengths)
		if got != want {
			t.Fatalf("round %d: ApplyDirty %+v != Full %+v", round, got, want)
		}
	}

	wpd := NewPipeline(fuzzy.WirePowerDelay, ckt, acts, lv, model)
	wpd.Full(lengths)
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyDirty on a delay pipeline did not panic")
		}
	}()
	wpd.ApplyDirty(dirty, lengths)
}

// TestPipelineObjectiveOrder pins the canonical wire → power → delay
// evaluation order the fuzzy aggregation and goodness terms rely on.
func TestPipelineObjectiveOrder(t *testing.T) {
	ckt, lv, acts, _ := testSetup(t)
	pipe := NewPipeline(fuzzy.WirePowerDelay, ckt, acts, lv, timing.DefaultModel())
	var names []string
	for _, o := range pipe.Objectives() {
		names = append(names, o.Name())
	}
	want := []string{"wire", "power", "delay"}
	for i := range want {
		if i >= len(names) || names[i] != want[i] {
			t.Fatalf("objective order %v, want %v", names, want)
		}
	}
	if pipe.Delay() == nil {
		t.Fatal("Delay() accessor returned nil with delay active")
	}
	if NewPipeline(fuzzy.WirePower, ckt, acts, lv, timing.DefaultModel()).Delay() != nil {
		t.Fatal("Delay() accessor non-nil without delay")
	}
}

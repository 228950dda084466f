package power

import (
	"math"
	"testing"
	"testing/quick"

	"simevo/internal/gen"
	"simevo/internal/netlist"
)

func netProb(t *testing.T, ckt *netlist.Circuit, probs []float64, name string) float64 {
	t.Helper()
	for i := range ckt.Nets {
		if ckt.Nets[i].Name == name {
			return probs[i]
		}
	}
	t.Fatalf("net %q not found", name)
	return -1
}

func buildGate(t *testing.T, typ netlist.GateType, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("g")
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = "i" + string(rune('0'+i))
		b.AddInput(inputs[i])
	}
	b.AddGate("g", typ, inputs, 0)
	b.AddOutput("g")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestGateProbabilities(t *testing.T) {
	cases := []struct {
		typ  netlist.GateType
		n    int
		want float64
	}{
		{netlist.And, 2, 0.25},
		{netlist.Nand, 2, 0.75},
		{netlist.Or, 2, 0.75},
		{netlist.Nor, 2, 0.25},
		{netlist.Not, 1, 0.5},
		{netlist.Buf, 1, 0.5},
		{netlist.Xor, 2, 0.5},
		{netlist.Xnor, 2, 0.5},
		{netlist.And, 3, 0.125},
		{netlist.Or, 3, 0.875},
	}
	for _, tc := range cases {
		ckt := buildGate(t, tc.typ, tc.n)
		probs, err := Probabilities(ckt, DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", tc.typ, err)
		}
		if got := netProb(t, ckt, probs, "g"); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v/%d output prob = %v, want %v", tc.typ, tc.n, got, tc.want)
		}
	}
}

func TestBiasedInputs(t *testing.T) {
	ckt := buildGate(t, netlist.And, 2)
	cfg := DefaultConfig()
	cfg.PIProb = 0.9
	probs, err := Probabilities(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := netProb(t, ckt, probs, "g"); math.Abs(got-0.81) > 1e-12 {
		t.Fatalf("AND(0.9, 0.9) = %v, want 0.81", got)
	}
}

// activities derives the per-net switching activities as the engine's
// problem set-up does.
func activities(t *testing.T, ckt *netlist.Circuit) []float64 {
	t.Helper()
	probs, err := Probabilities(ckt, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return FromProbabilities(probs)
}

func TestActivityFormula(t *testing.T) {
	ckt := buildGate(t, netlist.And, 2)
	acts := activities(t, ckt)
	// Output prob 0.25 -> S = 2*0.25*0.75 = 0.375.
	if got := netProb(t, ckt, acts, "g"); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("AND2 activity = %v, want 0.375", got)
	}
	// PI nets: S = 2*0.5*0.5 = 0.5.
	if got := netProb(t, ckt, acts, "i0"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("PI activity = %v, want 0.5", got)
	}
}

func TestSequentialFixpoint(t *testing.T) {
	// ff = DFF(g), g = AND(a, ff): p(g) = 0.5 * p(ff), p(ff) = p(g)
	// => fixpoint p = 0. The iteration must converge there.
	b := netlist.NewBuilder("seq")
	b.AddInput("a")
	b.AddGate("g", netlist.And, []string{"a", "ff"}, 0)
	b.AddGate("ff", netlist.DFF, []string{"g"}, 0)
	b.AddOutput("g")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Probabilities(ckt, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := netProb(t, ckt, probs, "ff"); got > 1e-6 {
		t.Fatalf("feedback AND fixpoint = %v, want ~0", got)
	}
}

func TestSequentialFixpointOr(t *testing.T) {
	// ff = DFF(g), g = OR(a, ff): p(g) = 1 - 0.5*(1-p(ff)) -> fixpoint 1.
	b := netlist.NewBuilder("seq2")
	b.AddInput("a")
	b.AddGate("g", netlist.Or, []string{"a", "ff"}, 0)
	b.AddGate("ff", netlist.DFF, []string{"g"}, 0)
	b.AddOutput("g")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Probabilities(ckt, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := netProb(t, ckt, probs, "ff"); got < 1-1e-6 {
		t.Fatalf("feedback OR fixpoint = %v, want ~1", got)
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	prop := func(seed uint64) bool {
		ckt, err := gen.Generate(gen.Params{
			Name: "p", Gates: 100, DFFs: 10, PIs: 8, POs: 8, Depth: 8, Seed: seed,
		})
		if err != nil {
			return false
		}
		probs, err := Probabilities(ckt, DefaultConfig())
		if err != nil {
			return false
		}
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		for _, s := range FromProbabilities(probs) {
			if s < 0 || s > 0.5+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfig(t *testing.T) {
	ckt := buildGate(t, netlist.And, 2)
	cfg := DefaultConfig()
	cfg.PIProb = 1.5
	if _, err := Probabilities(ckt, cfg); err == nil {
		t.Fatal("PIProb out of range accepted")
	}
}

func TestDeterministic(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := activities(t, ckt), activities(t, ckt)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("activity of net %d differs between runs", i)
		}
	}
}

// referenceProbabilities is the per-cell walk the flat gate tape
// replaced: every sweep visits the cells in level order and skips the
// ones without a truth function. Probabilities must match it bitwise.
func referenceProbabilities(t *testing.T, ckt *netlist.Circuit, cfg Config) []float64 {
	t.Helper()
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	prob := make([]float64, ckt.NumNets())
	for _, pi := range ckt.PIs {
		prob[ckt.Cells[pi].Out] = cfg.PIProb
	}
	for _, ff := range ckt.DFFs {
		prob[ckt.Cells[ff].Out] = 0.5
	}
	for i := range ckt.Cells {
		if cell := &ckt.Cells[i]; cell.Type == netlist.Macro && cell.Out != netlist.NoNet {
			prob[cell.Out] = 0.5
		}
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for _, id := range lv.Order {
			cell := &ckt.Cells[id]
			if cell.Type == netlist.Input || cell.Type == netlist.Output ||
				cell.Type == netlist.DFF || cell.Type == netlist.Macro {
				continue
			}
			prob[cell.Out] = gateProb(cell.Type, cell.In, prob)
		}
		delta := 0.0
		for _, ff := range ckt.DFFs {
			cell := &ckt.Cells[ff]
			next := prob[cell.In[0]]
			if d := math.Abs(next - prob[cell.Out]); d > delta {
				delta = d
			}
			prob[cell.Out] = next
		}
		if delta <= cfg.Tol {
			break
		}
	}
	return prob
}

// TestTapeMatchesReference pins the flat-tape fixpoint to the per-cell
// walk, bit for bit, on the catalog, a scaled circuit and a hand-built
// circuit covering multi-input XOR/XNOR folds, fan-ins above seven, Macro
// cells and DFF loops.
func TestTapeMatchesReference(t *testing.T) {
	ckts := map[string]*netlist.Circuit{}
	for _, name := range gen.Catalog() {
		ckt, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		ckts[name] = ckt
	}
	scaled, err := gen.Generate(gen.ScaledParams("c2000", 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	ckts["c2000"] = scaled

	b := netlist.NewBuilder("mixed")
	wide := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	for _, in := range wide {
		b.AddInput(in)
	}
	b.AddGate("and9", netlist.And, wide, 0)
	b.AddGate("nand8", netlist.Nand, wide[1:], 0)
	b.AddGate("or9", netlist.Or, append([]string{"ff2"}, wide[1:]...), 0)
	b.AddGate("mix", netlist.Xor, []string{"and9", "nand8"}, 0)
	b.AddOutput("mix")
	b.AddOutput("or9")
	b.AddGate("x3", netlist.Xor, []string{"a", "b", "ff1"}, 0)
	b.AddGate("xn3", netlist.Xnor, []string{"x3", "c", "m"}, 0)
	b.AddGate("m", netlist.Macro, []string{"a", "x3"}, 0)
	b.AddGate("n", netlist.Nor, []string{"xn3", "m", "ff2"}, 0)
	b.AddGate("o", netlist.Or, []string{"n", "b"}, 0)
	b.AddGate("ff1", netlist.DFF, []string{"o"}, 0)
	b.AddGate("ff2", netlist.DFF, []string{"xn3"}, 0)
	b.AddOutput("n")
	mixed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckts["mixed"] = mixed

	for _, cfg := range []Config{DefaultConfig(), {PIProb: 0.3, MaxIters: 7, Tol: 0}} {
		for name, ckt := range ckts {
			got, err := Probabilities(ckt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceProbabilities(t, ckt, cfg)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s (PI %v): net %d probability %v, reference %v", name, cfg.PIProb, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkProbabilities times the fixpoint on a catalog circuit and a
// 20k-cell scaled one, where the tolerance is never reached and all 50
// sweeps run.
func BenchmarkProbabilities(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    func() (*netlist.Circuit, error)
	}{
		{"s3330", func() (*netlist.Circuit, error) { return gen.Benchmark("s3330") }},
		{"scale20k", func() (*netlist.Circuit, error) { return gen.Generate(gen.ScaledParams("scale", 20000, 2006)) }},
	} {
		ckt, err := tc.p()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Probabilities(ckt, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

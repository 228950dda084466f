package timing

import (
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

// chain builds in0 -> g1 -> g2 -> ... -> gN -> out.
func chain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("chain")
	b.AddInput("in0")
	prev := "in0"
	for i := 1; i <= n; i++ {
		name := "g" + string(rune('0'+i))
		b.AddGate(name, netlist.Buf, []string{prev}, 0)
		prev = name
	}
	b.AddOutput(prev)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func analyzeUnit(t *testing.T, ckt *netlist.Circuit, netLen float64, m Model) *Analysis {
	t.Helper()
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]float64, ckt.NumNets())
	for i := range lengths {
		lengths[i] = netLen
	}
	a, err := Analyze(ckt, lv, lengths, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestChainDelay(t *testing.T) {
	ckt := chain(t, 3)
	m := DefaultModel()
	a := analyzeUnit(t, ckt, 10, m)

	// Each buffer: base 1.0 + load 0.2*1 sink = 1.2. Each net: 0.08*10 = 0.8.
	// Path: in0 --0.8--> g1(1.2) --0.8--> g2(1.2) --0.8--> g3(1.2) --0.8--> out.
	want := 4*0.8 + 3*1.2
	if math.Abs(a.MaxDelay-want) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v", a.MaxDelay, want)
	}

	cp := a.CriticalPath()
	if len(cp.Cells) != 5 { // in0, g1, g2, g3, out
		t.Fatalf("critical path has %d cells, want 5", len(cp.Cells))
	}
	if math.Abs(cp.Delay-want) > 1e-9 {
		t.Fatalf("critical path delay = %v, want %v", cp.Delay, want)
	}
	if ckt.Cells[cp.Cells[0]].Type != netlist.Input {
		t.Fatal("critical path does not start at a source")
	}
	if ckt.Cells[cp.Cells[len(cp.Cells)-1]].Type != netlist.Output {
		t.Fatal("critical path does not end at a sink")
	}
}

func TestZeroWireDelay(t *testing.T) {
	ckt := chain(t, 2)
	m := DefaultModel()
	a := analyzeUnit(t, ckt, 0, m)
	want := 2 * 1.2 // gates only
	if math.Abs(a.MaxDelay-want) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v", a.MaxDelay, want)
	}
}

func TestSlackOnCriticalPathIsZero(t *testing.T) {
	ckt := chain(t, 3)
	a := analyzeUnit(t, ckt, 10, DefaultModel())
	cp := a.CriticalPath()
	for _, id := range cp.Cells {
		c := &ckt.Cells[id]
		if c.Type == netlist.Output {
			continue // sinks have no output arrival/slack
		}
		if math.Abs(a.Slack[id]) > 1e-9 {
			t.Fatalf("cell %s on critical path has slack %v", c.Name, a.Slack[id])
		}
		if got := a.Criticality(id); math.Abs(got-1) > 1e-9 {
			t.Fatalf("cell %s criticality = %v, want 1", c.Name, got)
		}
	}
}

func TestSideBranchHasPositiveSlack(t *testing.T) {
	// in --> g1 --> g2 --> out1 (long path)
	//    \-> s1 --> out2        (short path)
	b := netlist.NewBuilder("branch")
	b.AddInput("in")
	b.AddGate("g1", netlist.Xor, []string{"in", "in"}, 0) // slow gate
	b.AddGate("g2", netlist.Xor, []string{"g1", "g1"}, 0)
	b.AddGate("s1", netlist.Buf, []string{"in"}, 0) // fast branch
	b.AddOutput("g2")
	b.AddOutput("s1")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := analyzeUnit(t, ckt, 5, DefaultModel())
	var s1 netlist.CellID = netlist.NoCell
	for i := range ckt.Cells {
		if ckt.Cells[i].Name == "s1" {
			s1 = netlist.CellID(i)
		}
	}
	if a.Slack[s1] <= 0 {
		t.Fatalf("fast branch slack = %v, want > 0", a.Slack[s1])
	}
	if c := a.Criticality(s1); c >= 1 {
		t.Fatalf("fast branch criticality = %v, want < 1", c)
	}
}

func TestDFFPathSegmentation(t *testing.T) {
	// in -> g1 -> ff -> g2 -> out. Paths: in->g1->ff.data and ff.q->g2->out.
	b := netlist.NewBuilder("seq")
	b.AddInput("in")
	b.AddGate("g1", netlist.Buf, []string{"in"}, 0)
	b.AddGate("ff", netlist.DFF, []string{"g1"}, 0)
	b.AddGate("g2", netlist.Buf, []string{"ff"}, 0)
	b.AddOutput("g2")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultModel()
	a := analyzeUnit(t, ckt, 10, m)

	// Segment A: net(0.8) + g1(1.2) + net(0.8) + setup(1.0) = 3.8.
	// Segment B: clkToQ(2.0) + net(0.8) + g2(1.2) + net(0.8) = 4.8.
	wantB := m.ClkToQ + 0.8 + 1.2 + 0.8
	if math.Abs(a.MaxDelay-wantB) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v (DFF source segment)", a.MaxDelay, wantB)
	}
	cp := a.CriticalPath()
	if ckt.Cells[cp.Cells[0]].Type != netlist.DFF {
		t.Fatalf("critical path should start at the DFF, starts at %v",
			ckt.Cells[cp.Cells[0]].Name)
	}
}

func TestWorstPathsOrdered(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "t", Gates: 150, DFFs: 10, PIs: 8, POs: 8, Depth: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 10, rng.New(1))
	ev := wire.NewEvaluator(ckt)
	lengths := ev.Lengths(p, nil)
	lv, _ := ckt.Levelize()
	a, err := Analyze(ckt, lv, lengths, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	paths := a.WorstPaths(5)
	if len(paths) == 0 {
		t.Fatal("no paths returned")
	}
	if math.Abs(paths[0].Delay-a.MaxDelay) > 1e-9 {
		t.Fatalf("WorstPaths[0].Delay = %v, want MaxDelay %v", paths[0].Delay, a.MaxDelay)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Delay > paths[i-1].Delay+1e-9 {
			t.Fatalf("paths not in decreasing delay order at %d", i)
		}
	}
	for _, path := range paths {
		if len(path.Cells) < 2 {
			t.Fatalf("degenerate path %v", path)
		}
	}
}

func TestArrivalMonotoneAlongEdges(t *testing.T) {
	// STA invariant: for every combinational edge driver->sink,
	// Arrival[sink] >= Arrival[driver] + NetDelay (+ gate delay if a gate).
	ckt, err := gen.Generate(gen.Params{
		Name: "t2", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 10, rng.New(2))
	ev := wire.NewEvaluator(ckt)
	lengths := ev.Lengths(p, nil)
	lv, _ := ckt.Levelize()
	a, err := Analyze(ckt, lv, lengths, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultModel()
	for i := range ckt.Nets {
		net := &ckt.Nets[i]
		for _, s := range net.Sinks {
			sc := &ckt.Cells[s]
			if sc.Type == netlist.Output || sc.Type == netlist.DFF {
				continue
			}
			lower := a.Arrival[net.Driver] + a.NetDelay[i] + m.CellDelay(ckt, s)
			if a.Arrival[s] < lower-1e-9 {
				t.Fatalf("arrival at %s = %v < %v", sc.Name, a.Arrival[s], lower)
			}
		}
	}
}

func TestLongerWiresIncreaseDelay(t *testing.T) {
	ckt := chain(t, 4)
	a1 := analyzeUnit(t, ckt, 5, DefaultModel())
	a2 := analyzeUnit(t, ckt, 50, DefaultModel())
	if a2.MaxDelay <= a1.MaxDelay {
		t.Fatalf("delay did not grow with wirelength: %v vs %v", a1.MaxDelay, a2.MaxDelay)
	}
}

func TestAnalyzeLengthMismatch(t *testing.T) {
	ckt := chain(t, 2)
	lv, _ := ckt.Levelize()
	if _, err := Analyze(ckt, lv, []float64{1}, DefaultModel()); err == nil {
		t.Fatal("length/net mismatch accepted")
	}
}

func TestCriticalityRange(t *testing.T) {
	ckt, err := gen.Benchmark("s1238")
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 0, rng.New(3))
	ev := wire.NewEvaluator(ckt)
	lv, _ := ckt.Levelize()
	a, err := Analyze(ckt, lv, ev.Lengths(p, nil), DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ckt.Cells {
		c := a.Criticality(netlist.CellID(i))
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("criticality of cell %d = %v", i, c)
		}
	}
}

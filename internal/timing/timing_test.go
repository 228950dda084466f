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

// staUnit runs STA with every net at length netLen.
func staUnit(t *testing.T, ckt *netlist.Circuit, netLen float64, m Model) *STA {
	t.Helper()
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]float64, ckt.NumNets())
	for i := range lengths {
		lengths[i] = netLen
	}
	s := NewSTA(ckt, lv, m)
	s.Rebuild(lengths)
	return s
}

// cellNamed returns the ID of the cell called name.
func cellNamed(t *testing.T, ckt *netlist.Circuit, name string) netlist.CellID {
	t.Helper()
	for i := range ckt.Cells {
		if ckt.Cells[i].Name == name {
			return netlist.CellID(i)
		}
	}
	t.Fatalf("no cell %q", name)
	return netlist.NoCell
}

func TestChainDelay(t *testing.T) {
	ckt := chain(t, 3)
	s := staUnit(t, ckt, 10, DefaultModel())

	// Each buffer: base 1.0 + load 0.2*1 sink = 1.2. Each net: 0.08*10 = 0.8.
	// Path: in0 --0.8--> g1(1.2) --0.8--> g2(1.2) --0.8--> g3(1.2) --0.8--> out.
	want := 4*0.8 + 3*1.2
	if math.Abs(s.maxDelay-want) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v", s.maxDelay, want)
	}
}

func TestZeroWireDelay(t *testing.T) {
	ckt := chain(t, 2)
	s := staUnit(t, ckt, 0, DefaultModel())
	want := 2 * 1.2 // gates only
	if math.Abs(s.maxDelay-want) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v", s.maxDelay, want)
	}
}

func TestSlackOnCriticalPathIsZero(t *testing.T) {
	ckt := chain(t, 3)
	s := staUnit(t, ckt, 10, DefaultModel())
	for i := range ckt.Cells {
		c := &ckt.Cells[i]
		if c.Type == netlist.Output {
			continue // sinks have no output arrival/slack
		}
		if got := s.Criticality(netlist.CellID(i)); math.Abs(got-1) > 1e-9 {
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
	s := staUnit(t, ckt, 5, DefaultModel())
	if c := s.Criticality(cellNamed(t, ckt, "s1")); c >= 1 {
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
	s := staUnit(t, ckt, 10, m)

	// Segment A: net(0.8) + g1(1.2) + net(0.8) + setup(1.0) = 3.8.
	// Segment B: clkToQ(2.0) + net(0.8) + g2(1.2) + net(0.8) = 4.8.
	wantB := m.ClkToQ + 0.8 + 1.2 + 0.8
	if math.Abs(s.maxDelay-wantB) > 1e-9 {
		t.Fatalf("MaxDelay = %v, want %v (DFF source segment)", s.maxDelay, wantB)
	}
	// The critical path starts at the flip-flop: it and g2 lie on it, g1
	// only on the shorter segment A.
	for _, name := range []string{"ff", "g2"} {
		if c := s.Criticality(cellNamed(t, ckt, name)); math.Abs(c-1) > 1e-9 {
			t.Fatalf("%s criticality = %v, want 1", name, c)
		}
	}
	if c := s.Criticality(cellNamed(t, ckt, "g1")); c >= 1 {
		t.Fatalf("g1 criticality = %v, want < 1", c)
	}
}

func TestArrivalMonotoneAlongEdges(t *testing.T) {
	// STA invariant: for every combinational edge driver->sink,
	// arr[sink] >= arr[driver] + netDelay (+ gate delay if a gate).
	ckt, err := gen.Generate(gen.Params{
		Name: "t2", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 10, rng.New(2))
	ev := wire.NewEvaluator(ckt)
	lv, _ := ckt.Levelize()
	m := DefaultModel()
	s := NewSTA(ckt, lv, m)
	s.Rebuild(ev.Lengths(p, nil))
	for i := range ckt.Nets {
		net := &ckt.Nets[i]
		for _, sk := range net.Sinks {
			sc := &ckt.Cells[sk]
			if sc.Type == netlist.Output || sc.Type == netlist.DFF {
				continue
			}
			lower := s.arr[net.Driver] + s.netDelay[i] + m.CellDelay(ckt, sk)
			if s.arr[sk] < lower-1e-9 {
				t.Fatalf("arrival at %s = %v < %v", sc.Name, s.arr[sk], lower)
			}
		}
	}
}

func TestLongerWiresIncreaseDelay(t *testing.T) {
	ckt := chain(t, 4)
	s1 := staUnit(t, ckt, 5, DefaultModel())
	s2 := staUnit(t, ckt, 50, DefaultModel())
	if s2.maxDelay <= s1.maxDelay {
		t.Fatalf("delay did not grow with wirelength: %v vs %v", s1.maxDelay, s2.maxDelay)
	}
}

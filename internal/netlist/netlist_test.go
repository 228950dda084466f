package netlist

import (
	"reflect"
	"strings"
	"testing"
)

// buildSmall constructs the tiny sequential circuit used across tests:
//
//	INPUT(a) INPUT(b)
//	g1 = NAND(a, b)
//	g2 = NOT(g1)
//	ff = DFF(g2)
//	g3 = OR(ff, a)
//	OUTPUT(g3)
func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("small")
	b.AddInput("a")
	b.AddInput("b")
	b.AddGate("g1", Nand, []string{"a", "b"}, 0)
	b.AddGate("g2", Not, []string{"g1"}, 0)
	b.AddGate("ff", DFF, []string{"g2"}, 0)
	b.AddGate("g3", Or, []string{"ff", "a"}, 0)
	b.AddOutput("g3")
	ckt, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ckt
}

func TestBuilderBasic(t *testing.T) {
	ckt := buildSmall(t)
	if got := ckt.NumCells(); got != 7 {
		t.Fatalf("NumCells = %d, want 7", got)
	}
	if got := ckt.NumMovable(); got != 4 {
		t.Fatalf("NumMovable = %d, want 4", got)
	}
	if got := len(ckt.PIs); got != 2 {
		t.Fatalf("PIs = %d, want 2", got)
	}
	if got := len(ckt.POs); got != 1 {
		t.Fatalf("POs = %d, want 1", got)
	}
	if got := len(ckt.DFFs); got != 1 {
		t.Fatalf("DFFs = %d, want 1", got)
	}
	// 6 driving cells (2 PI + 4 gates).
	if got := ckt.NumNets(); got != 6 {
		t.Fatalf("NumNets = %d, want 6", got)
	}
}

func TestBuilderDuplicateCell(t *testing.T) {
	b := NewBuilder("dup")
	b.AddInput("a")
	b.AddInput("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate cell not rejected")
	}
}

func TestBuilderUndrivenSignal(t *testing.T) {
	b := NewBuilder("undriven")
	b.AddInput("a")
	b.AddGate("g", Not, []string{"missing"}, 0)
	b.AddOutput("g")
	if _, err := b.Build(); err == nil {
		t.Fatal("undriven signal not rejected")
	}
}

// TestBuilderPinWindows pins the wiring Build carves out of its shared
// pin arrays: inputs in pin order, sinks in cell order with repeats for
// multi-pin cells, and windows capped so that growing one never writes
// into a neighbor's.
func TestBuilderPinWindows(t *testing.T) {
	build := func(grow bool) *Circuit {
		b := NewBuilder("windows")
		if grow {
			b.Grow(6)
		}
		b.AddInput("a")
		b.AddInput("b")
		b.AddGate("g1", And, []string{"a", "a"}, 0) // two pins on net a
		b.AddGate("g2", Or, []string{"b", "g1"}, 0)
		b.AddGate("g3", Not, []string{"a"}, 0)
		b.AddOutput("g2")
		ckt, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return ckt
	}
	ckt := build(false)
	if !reflect.DeepEqual(ckt, build(true)) {
		t.Fatal("Grow changed the built circuit")
	}
	a, g1 := ckt.Cells[0].Out, ckt.Cells[2].Out
	if got, want := ckt.Nets[a].Sinks, []CellID{2, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sinks of a = %v, want %v", got, want)
	}
	if got, want := ckt.Cells[3].In, []NetID{ckt.Cells[1].Out, g1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("inputs of g2 = %v, want %v", got, want)
	}
	if ckt.Cells[0].In != nil || ckt.Nets[ckt.Cells[4].Out].Sinks != nil {
		t.Fatal("a cell without inputs or a net without sinks has a non-nil slice")
	}
	_ = append(ckt.Cells[2].In, g1)
	_ = append(ckt.Nets[a].Sinks, 3)
	if got, want := ckt.Cells[3].In[0], ckt.Cells[1].Out; got != want {
		t.Fatalf("growing g1's inputs overwrote g2's: %v, want %v", got, want)
	}
	if got, want := ckt.Nets[ckt.Cells[1].Out].Sinks, []CellID{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("growing a's sinks overwrote b's: %v, want %v", got, want)
	}
}

func TestBuilderOutputPadIsNotADriver(t *testing.T) {
	b := NewBuilder("padref")
	b.AddInput("a")
	b.AddOutput("a")
	b.AddGate("g", Not, []string{"out:a"}, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("reference to an output pad not rejected")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	b := NewBuilder("cycle")
	b.AddInput("a")
	b.AddGate("g1", And, []string{"a", "g2"}, 0)
	b.AddGate("g2", Not, []string{"g1"}, 0)
	b.AddOutput("g2")
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle not rejected")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// Feedback through a DFF is legal sequential structure.
	b := NewBuilder("seqloop")
	b.AddInput("a")
	b.AddGate("g1", And, []string{"a", "ff"}, 0)
	b.AddGate("ff", DFF, []string{"g1"}, 0)
	b.AddOutput("g1")
	ckt, err := b.Build()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatalf("Levelize: %v", err)
	}
	if lv.Depth < 1 {
		t.Fatalf("Depth = %d, want >= 1", lv.Depth)
	}
}

// TestLevelizeOnce checks that a built circuit keeps the levelization
// Validate computed: every Levelize call returns that one value, and a
// circuit assembled without Validate gets an equal, freshly computed one.
func TestLevelizeOnce(t *testing.T) {
	ckt := buildSmall(t)
	a, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := ckt.Levelize(); b != a {
		t.Fatal("a built circuit levelized twice")
	}
	raw := &Circuit{Name: ckt.Name, Cells: ckt.Cells, Nets: ckt.Nets}
	c, err := raw.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if c == a || !reflect.DeepEqual(c, a) {
		t.Fatalf("unvalidated circuit: levels %+v (shared %v), want a fresh copy of %+v", c, c == a, a)
	}
}

func TestLevelizeOrder(t *testing.T) {
	ckt := buildSmall(t)
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatalf("Levelize: %v", err)
	}
	if len(lv.Order) != ckt.NumCells() {
		t.Fatalf("Order covers %d cells, want %d", len(lv.Order), ckt.NumCells())
	}
	// Topological property: every non-source cell appears after all its
	// combinational fan-in cells.
	pos := make(map[CellID]int)
	for i, id := range lv.Order {
		pos[id] = i
	}
	for i := range ckt.Cells {
		cell := &ckt.Cells[i]
		if cell.Type == Input || cell.Type == DFF {
			continue
		}
		for _, n := range cell.In {
			d := ckt.Nets[n].Driver
			if pos[d] >= pos[cell.ID] {
				t.Fatalf("cell %s at %d before fan-in %s at %d",
					cell.Name, pos[cell.ID], ckt.Cells[d].Name, pos[d])
			}
		}
	}
}

func TestLevelizeLevels(t *testing.T) {
	ckt := buildSmall(t)
	lv, _ := ckt.Levelize()
	byName := func(name string) int {
		for i := range ckt.Cells {
			if ckt.Cells[i].Name == name {
				return lv.Level[i]
			}
		}
		t.Fatalf("cell %q not found", name)
		return -1
	}
	if byName("a") != 0 || byName("b") != 0 {
		t.Fatal("PI level != 0")
	}
	if byName("ff") != 0 {
		t.Fatal("DFF output level != 0 (must be a path source)")
	}
	if byName("g1") != 1 {
		t.Fatalf("g1 level = %d, want 1", byName("g1"))
	}
	if byName("g2") != 2 {
		t.Fatalf("g2 level = %d, want 2", byName("g2"))
	}
	if byName("g3") != 1 {
		t.Fatalf("g3 level = %d, want 1 (fed by DFF and PI)", byName("g3"))
	}
}

func TestCellNetsDistinct(t *testing.T) {
	// A cell with two pins on the same net should list the net once.
	b := NewBuilder("dup-pin")
	b.AddInput("a")
	b.AddGate("g", And, []string{"a", "a"}, 0)
	b.AddOutput("g")
	ckt, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var g CellID = NoCell
	for i := range ckt.Cells {
		if ckt.Cells[i].Name == "g" {
			g = CellID(i)
		}
	}
	nets := ckt.CellNets(g, nil)
	if len(nets) != 2 { // its own output net + net "a" once
		t.Fatalf("CellNets = %v, want 2 distinct nets", nets)
	}
}

func TestParseBenchRoundTrip(t *testing.T) {
	src := `# test circuit
INPUT(G0)
INPUT(G1)
OUTPUT(G7)
G5 = DFF(G6)
G6 = NAND(G0, G1)
G7 = OR(G5, G0)
`
	ckt, err := ParseBench("rt", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if ckt.NumMovable() != 3 {
		t.Fatalf("NumMovable = %d, want 3", ckt.NumMovable())
	}

	var sb strings.Builder
	if err := WriteBench(&sb, ckt); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	ckt2, err := ParseBench("rt2", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	s1, s2 := ComputeStats(ckt), ComputeStats(ckt2)
	s1.Name, s2.Name = "", ""
	if s1 != s2 {
		t.Fatalf("round-trip stats differ:\n  %v\n  %v", s1, s2)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"garbage", "hello world\n"},
		{"badtype", "INPUT(a)\ng = FOO(a)\nOUTPUT(g)\n"},
		{"emptyPad", "INPUT()\n"},
		{"noParen", "INPUT a\n"},
		{"emptyInput", "INPUT(a)\ng = AND(a,)\nOUTPUT(g)\n"},
	}
	for _, tc := range cases {
		if _, err := ParseBench(tc.name, strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: malformed input accepted", tc.name)
		}
	}
}

func TestParseGateTypeAliases(t *testing.T) {
	for _, s := range []string{"nand", "NAND", "Nand"} {
		g, err := ParseGateType(s)
		if err != nil || g != Nand {
			t.Fatalf("ParseGateType(%q) = %v, %v", s, g, err)
		}
	}
	if g, err := ParseGateType("INV"); err != nil || g != Not {
		t.Fatalf("ParseGateType(INV) = %v, %v", g, err)
	}
	if g, err := ParseGateType("BUF"); err != nil || g != Buf {
		t.Fatalf("ParseGateType(BUF) = %v, %v", g, err)
	}
}

func TestDefaultWidth(t *testing.T) {
	if DefaultWidth(Input, 0) != 0 || DefaultWidth(Output, 1) != 0 {
		t.Fatal("pads must have zero width")
	}
	if DefaultWidth(Not, 1) != 1 {
		t.Fatal("inverter width != 1")
	}
	if DefaultWidth(DFF, 1) != 4 {
		t.Fatal("DFF width != 4")
	}
	if w := DefaultWidth(And, 2); w != 3 {
		t.Fatalf("AND2 width = %d, want 3", w)
	}
	if w := DefaultWidth(And, 10); w != 6 {
		t.Fatalf("wide gate width = %d, want capped at 6", w)
	}
}

func TestStats(t *testing.T) {
	ckt := buildSmall(t)
	st := ComputeStats(ckt)
	if st.Cells != 4 || st.Gates != 3 || st.DFFs != 1 {
		t.Fatalf("stats cells/gates/dffs = %d/%d/%d", st.Cells, st.Gates, st.DFFs)
	}
	if st.Nets != 6 {
		t.Fatalf("stats nets = %d, want 6", st.Nets)
	}
	// g1(2) + g2(1) + g3(2) inputs over 3 gates.
	if st.AvgFanin < 1.6 || st.AvgFanin > 1.7 {
		t.Fatalf("AvgFanin = %v", st.AvgFanin)
	}
	if st.Depth != 2 {
		t.Fatalf("Depth = %d, want 2", st.Depth)
	}
	if !strings.Contains(st.String(), "small") {
		t.Fatal("Stats.String missing circuit name")
	}
}

func TestTotalWidth(t *testing.T) {
	ckt := buildSmall(t)
	// g1 NAND2 = 3, g2 NOT = 1, ff DFF = 4, g3 OR2 = 3.
	if got := ckt.TotalWidth(); got != 11 {
		t.Fatalf("TotalWidth = %d, want 11", got)
	}
}

func TestMovableCached(t *testing.T) {
	ckt := buildSmall(t)
	m1 := ckt.Movable()
	m2 := ckt.Movable()
	if &m1[0] != &m2[0] {
		t.Fatal("Movable not cached")
	}
	for _, id := range m1 {
		if ckt.Cells[id].IsPad() {
			t.Fatalf("Movable contains pad %v", id)
		}
	}
}

package timing

import (
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

func incTestCircuit(t *testing.T, name string) (*netlist.Circuit, *netlist.Levels, []float64) {
	t.Helper()
	ckt, err := gen.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := ckt.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]float64, ckt.NumNets())
	r := rng.New(0xD1A7)
	for i := range lengths {
		lengths[i] = r.Float64() * 60
	}
	return ckt, lv, lengths
}

// TestIncRebuildIsStateless pins what the cost pipeline relies on when it
// reuses one analyzer across evaluations: a Rebuild over new lengths lands
// on exactly the bits of a fresh analyzer's Rebuild — MaxDelay, every cell
// criticality, and every net criticality — whatever state it started from.
func TestIncRebuildIsStateless(t *testing.T) {
	ckt, lv, lengths := incTestCircuit(t, "s1488")
	warm := NewSTA(ckt, lv, DefaultModel())
	r := rng.New(7)
	for round := 0; round < 20; round++ {
		for k := 0; k < 1+r.Intn(ckt.NumNets()/2); k++ {
			n := r.Intn(ckt.NumNets())
			lengths[n] = math.Abs(lengths[n] + (r.Float64()-0.5)*30)
		}
		fresh := NewSTA(ckt, lv, DefaultModel())
		if got, want := warm.Rebuild(lengths), fresh.Rebuild(lengths); got != want {
			t.Fatalf("round %d: MaxDelay %v != fresh %v", round, got, want)
		}
		for id := range ckt.Cells {
			if a, b := warm.Criticality(netlist.CellID(id)), fresh.Criticality(netlist.CellID(id)); a != b {
				t.Fatalf("round %d: cell %d criticality %v != fresh %v", round, id, a, b)
			}
		}
		for n := 0; n < ckt.NumNets(); n++ {
			if a, b := warm.NetCriticality(netlist.NetID(n)), fresh.NetCriticality(netlist.NetID(n)); a != b {
				t.Fatalf("round %d: net %d criticality %v != fresh %v", round, n, a, b)
			}
		}
	}
	if warm.Rebuilds() != 20 {
		t.Fatalf("Rebuilds() = %d, want 20", warm.Rebuilds())
	}
}

// TestIncAgreesWithAnalyze cross-checks the deadline-free slack
// formulation against the classic required-time pass, Analyze below:
// MaxDelay must match exactly (same max-of-sums recurrence) and
// criticalities to float tolerance (Analyze subtracts along the backward
// chain, STA keeps an additive departure, so the two agree up to
// rounding).
func TestIncAgreesWithAnalyze(t *testing.T) {
	ckt, lv, lengths := incTestCircuit(t, "s1196")
	inc := NewSTA(ckt, lv, DefaultModel())
	maxDelay := inc.Rebuild(lengths)
	a := Analyze(ckt, lv, lengths, DefaultModel())
	if maxDelay != a.MaxDelay {
		t.Fatalf("STA MaxDelay %v != Analyze %v", maxDelay, a.MaxDelay)
	}
	for id := range ckt.Cells {
		ci := inc.Criticality(netlist.CellID(id))
		ca := a.Criticality(netlist.CellID(id))
		if math.Abs(ci-ca) > 1e-9 {
			t.Fatalf("cell %d: STA criticality %v, Analyze %v", id, ci, ca)
		}
	}
}

// TestIncCriticalityRange pins the clamp semantics: criticalities live in
// [0,1] and cells feeding no sink score 0.
func TestIncCriticalityRange(t *testing.T) {
	ckt, lv, lengths := incTestCircuit(t, "s1238")
	inc := NewSTA(ckt, lv, DefaultModel())
	inc.Rebuild(lengths)
	for id := range ckt.Cells {
		c := inc.Criticality(netlist.CellID(id))
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("cell %d criticality %v out of [0,1]", id, c)
		}
	}
	for _, po := range ckt.POs {
		if c := inc.Criticality(po); c != 0 {
			t.Fatalf("output pad %d criticality %v, want 0 (feeds no sink)", po, c)
		}
	}
}

// Analysis holds the results of one classic timing pass: the reference
// TestIncAgreesWithAnalyze holds STA to.
type Analysis struct {
	// Arrival[c] is the signal arrival time at cell c's output. For
	// flip-flops this is the clock-to-Q time (source side).
	Arrival []float64
	// Required[c] is the latest permissible output arrival; Slack[c] =
	// Required[c] - Arrival[c]. Cells feeding no sink have +Inf slack.
	Required []float64
	Slack    []float64
	// NetDelay[n] is the interconnect delay ID of net n.
	NetDelay []float64
	// MaxDelay is Cost_delay: the largest sink arrival.
	MaxDelay float64
}

// Analyze runs a full timing pass given per-net length estimates: arrival
// times forward, then required times against MaxDelay backward.
func Analyze(ckt *netlist.Circuit, lv *netlist.Levels, lengths []float64, m Model) *Analysis {
	n := len(ckt.Cells)
	a := &Analysis{
		Arrival:  make([]float64, n),
		Required: make([]float64, n),
		Slack:    make([]float64, n),
		NetDelay: make([]float64, ckt.NumNets()),
	}
	for i := range a.NetDelay {
		a.NetDelay[i] = m.UnitWire * lengths[i]
	}

	// Forward pass: arrival times in topological order.
	for _, id := range lv.Order {
		cell := &ckt.Cells[id]
		switch cell.Type {
		case netlist.Input:
			a.Arrival[id] = 0
			continue
		case netlist.DFF:
			a.Arrival[id] = m.ClkToQ
			continue // data-side arrival handled in the sink pass below
		}
		worst := 0.0
		for _, in := range cell.In {
			d := ckt.Nets[in].Driver
			if t := a.Arrival[d] + a.NetDelay[in]; t > worst {
				worst = t
			}
		}
		if cell.Type == netlist.Output {
			a.MaxDelay = math.Max(a.MaxDelay, worst)
			continue
		}
		a.Arrival[id] = worst + m.CellDelay(ckt, id)
	}

	// Flip-flop data inputs are sinks too.
	for _, ff := range ckt.DFFs {
		in := ckt.Cells[ff].In[0]
		d := ckt.Nets[in].Driver
		a.MaxDelay = math.Max(a.MaxDelay, a.Arrival[d]+a.NetDelay[in]+m.Setup)
	}

	// Backward pass: required times against MaxDelay.
	for i := range a.Required {
		a.Required[i] = math.Inf(1)
	}
	for _, po := range ckt.POs {
		in := ckt.Cells[po].In[0]
		d := ckt.Nets[in].Driver
		if r := a.MaxDelay - a.NetDelay[in]; r < a.Required[d] {
			a.Required[d] = r
		}
	}
	for _, ff := range ckt.DFFs {
		in := ckt.Cells[ff].In[0]
		d := ckt.Nets[in].Driver
		if r := a.MaxDelay - m.Setup - a.NetDelay[in]; r < a.Required[d] {
			a.Required[d] = r
		}
	}
	for i := len(lv.Order) - 1; i >= 0; i-- {
		id := lv.Order[i]
		cell := &ckt.Cells[id]
		if cell.Type == netlist.Input || cell.Type == netlist.DFF || cell.Type == netlist.Output {
			continue
		}
		// Propagate this cell's requirement to its fan-in drivers.
		req := a.Required[id] - m.CellDelay(ckt, id)
		for _, in := range cell.In {
			d := ckt.Nets[in].Driver
			if r := req - a.NetDelay[in]; r < a.Required[d] {
				a.Required[d] = r
			}
		}
	}
	for i := range a.Slack {
		a.Slack[i] = a.Required[i] - a.Arrival[i]
	}
	return a
}

// Criticality maps a cell's slack to [0, 1]: 1 on the critical path, 0 for
// cells with slack >= MaxDelay (or feeding no sink).
func (a *Analysis) Criticality(id netlist.CellID) float64 {
	s := a.Slack[id]
	if math.IsInf(s, 1) || a.MaxDelay <= 0 {
		return 0
	}
	c := 1 - s/a.MaxDelay
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

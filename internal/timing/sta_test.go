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
// formulation against the classic Analyze pass: MaxDelay must match
// exactly (same max-of-sums recurrence) and criticalities to float
// tolerance (Analyze subtracts along the backward chain, STA keeps an
// additive departure, so the two agree up to rounding).
func TestIncAgreesWithAnalyze(t *testing.T) {
	ckt, lv, lengths := incTestCircuit(t, "s1196")
	inc := NewSTA(ckt, lv, DefaultModel())
	inc.Rebuild(lengths)
	a, err := Analyze(ckt, lv, lengths, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if inc.MaxDelay() != a.MaxDelay {
		t.Fatalf("STA MaxDelay %v != Analyze %v", inc.MaxDelay(), a.MaxDelay)
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

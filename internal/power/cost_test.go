package power_test

import (
	"math"
	"strconv"
	"testing"

	"simevo/internal/cost"
	"simevo/internal/fuzzy"
	"simevo/internal/netlist"
	"simevo/internal/timing"
)

// powerCost evaluates Cost_power = Σ l_i·S_i through the cost pipeline's
// power objective, the sum the engine runs, on a buffer chain with one
// net per length.
func powerCost(t *testing.T, lengths, acts []float64) float64 {
	t.Helper()
	b := netlist.NewBuilder("chain")
	b.AddInput("in")
	prev := "in"
	for i := 1; i < len(lengths); i++ {
		name := "g" + strconv.Itoa(i)
		b.AddGate(name, netlist.Buf, []string{prev}, 0)
		prev = name
	}
	b.AddOutput(prev)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ckt.NumNets() != len(lengths) {
		t.Fatalf("chain has %d nets, want %d", ckt.NumNets(), len(lengths))
	}
	return cost.NewPipeline(fuzzy.Power, ckt, acts, nil, timing.Model{}).Full(lengths).Power
}

func TestCost(t *testing.T) {
	lengths := []float64{10, 20, 30}
	acts := []float64{0.5, 0.25, 0.1}
	want := 10*0.5 + 20*0.25 + 30*0.1
	if got := powerCost(t, lengths, acts); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestCostMonotoneInLength(t *testing.T) {
	acts := []float64{0.3, 0.3}
	if powerCost(t, []float64{10, 10}, acts) >= powerCost(t, []float64{20, 10}, acts) {
		t.Fatal("power cost not monotone in net length")
	}
}

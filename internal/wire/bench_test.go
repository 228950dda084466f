package wire

import (
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

func benchCircuit(b *testing.B) *netlist.Circuit {
	b.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "wire-bench", Gates: 500, DFFs: 30, PIs: 14, POs: 14, Depth: 12, Seed: 2006,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

// BenchmarkLengthsIncremental compares refreshing all net lengths after a
// two-cell swap: the per-pin path SA and TS take (MoveCell at the swapped
// coordinates, then only the touched nets relengthed), the full Rebuild
// every engine evaluation runs, and the from-scratch Evaluator pass of the
// reference engine.
func BenchmarkLengthsIncremental(b *testing.B) {
	ckt := benchCircuit(b)
	movable := ckt.Movable()

	b.Run("MoveCell", func(b *testing.B) {
		place := layout.NewRandom(ckt, 16, rng.New(1))
		inc := NewIncremental(ckt)
		inc.Rebuild(place)
		r := rng.New(2)
		var lengths []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := movable[r.Intn(len(movable))]
			c := movable[r.Intn(len(movable))]
			if a != c {
				ax, ay := place.Coord(a)
				cx, cy := place.Coord(c)
				place.SwapCells(a, c)
				place.SetCoordHint(a, cx, cy)
				place.SetCoordHint(c, ax, ay)
				inc.MoveCell(a, cx, cy)
				inc.MoveCell(c, ax, ay)
			}
			lengths = inc.Lengths(lengths)
		}
	})

	b.Run("Rebuild", func(b *testing.B) {
		place := layout.NewRandom(ckt, 16, rng.New(1))
		inc := NewIncremental(ckt)
		r := rng.New(2)
		var lengths []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := movable[r.Intn(len(movable))]
			c := movable[r.Intn(len(movable))]
			if a != c {
				place.SwapCells(a, c)
				place.Recompute()
			}
			inc.Rebuild(place)
			lengths = inc.Lengths(lengths)
		}
	})

	b.Run("Full", func(b *testing.B) {
		place := layout.NewRandom(ckt, 16, rng.New(1))
		ev := NewEvaluator(ckt)
		r := rng.New(2)
		var lengths []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := movable[r.Intn(len(movable))]
			c := movable[r.Intn(len(movable))]
			if a != c {
				place.SwapCells(a, c)
				place.Recompute()
			}
			lengths = ev.Lengths(place, lengths)
		}
	})
}

// BenchmarkTrialNetAt compares one-net trial scoring: the O(log p) cached
// composition against the collect-and-sort canonical evaluation.
func BenchmarkTrialNetAt(b *testing.B) {
	ckt := benchCircuit(b)
	place := layout.NewRandom(ckt, 16, rng.New(3))

	// Pick the highest-degree net for a representative worst case.
	var n netlist.NetID
	for i := range ckt.Nets {
		if ckt.Nets[i].Degree() > ckt.Nets[n].Degree() {
			n = netlist.NetID(i)
		}
	}
	cell := ckt.Nets[n].Driver

	b.Run("Incremental", func(b *testing.B) {
		inc := NewIncremental(ckt)
		inc.Rebuild(place)
		inc.RemoveCell(cell)
		b.ResetTimer()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += inc.TrialNetAt(n, float64(i%100), 7.5)
		}
		_ = sink
	})

	b.Run("Scratch", func(b *testing.B) {
		ev := NewEvaluator(ckt)
		b.ResetTimer()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += ev.NetLengthWithCellAt(n, cell, float64(i%100), 7.5, place)
		}
		_ = sink
	})
}

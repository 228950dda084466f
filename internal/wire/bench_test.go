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
// two-cell move: the dirty-net incremental path (journal drain + touched
// nets only) against the from-scratch full pass the engine used to do
// every iteration.
func BenchmarkLengthsIncremental(b *testing.B) {
	ckt := benchCircuit(b)
	movable := ckt.Movable()

	b.Run("Dirty", func(b *testing.B) {
		place := layout.NewRandom(ckt, 16, rng.New(1))
		place.JournalCoords(true)
		inc := NewIncremental(ckt)
		inc.Rebuild(place)
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
			inc.Sync(place)
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

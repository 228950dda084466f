// Package metrics computes placement-quality diagnostics beyond the
// optimization objectives: routing-congestion estimates and row-utilization
// statistics. These back the reporting tools (cmd/simevo-run) and the
// regression tests that check SimE does not trade the unmodeled qualities
// away while optimizing μ(s).
package metrics

import (
	"fmt"
	"math"

	"simevo/internal/congest"
	"simevo/internal/layout"
	"simevo/internal/wire"
)

// Congestion is a bin-based routing-demand estimate: the die is divided
// into a grid of bins; every net spreads its half-perimeter wirelength
// uniformly over the bins its bounding box overlaps (a standard
// probabilistic routing-demand model). Total demand therefore equals total
// HPWL (up to the grid's fixed-point quantization, below one part in 10^6
// per net), and per-bin demand is a wiring-density estimate.
type Congestion struct {
	NX, NY int
	// Demand[y*NX+x] is the estimated routing demand of bin (x, y).
	Demand []float64
	// Peak is the maximum bin demand; Avg the mean.
	Peak, Avg float64
	// Overflow is the summed demand above twice the average — the measure
	// of how concentrated routing demand is.
	Overflow float64
}

// Bin returns the demand of bin (x, y).
func (c *Congestion) Bin(x, y int) float64 { return c.Demand[y*c.NX+x] }

// String summarizes the congestion map.
func (c *Congestion) String() string {
	return fmt.Sprintf("congestion: %dx%d bins, peak %.1f, avg %.2f, overflow %.1f",
		c.NX, c.NY, c.Peak, c.Avg, c.Overflow)
}

// EstimateCongestion builds the congestion map with roughly nx bins across
// the die width (nx <= 0 selects 16).
//
// This is a thin adapter over internal/congest — the same integer
// fixed-point bin grid the congestion cost objective maintains
// incrementally inside the engine — so the diagnostic and the objective
// can never disagree on binning. That includes the boundary convention:
// bins are half-open with floor indexing (a pin exactly on a bin boundary
// belongs to the higher-indexed bin; the old implementation truncated
// toward zero, which handled out-of-die pad overhang differently from
// interior boundaries).
func EstimateCongestion(p *layout.Placement, nx int) *Congestion {
	width := float64(p.MaxRowWidth())
	height := float64(p.NumRows()) * layout.RowPitch
	spec := congest.SpecSized(width, height, nx)
	g := congest.New(p.Circuit(), spec, congest.PlacementSource{P: p})
	g.Full(nil)

	return &Congestion{
		NX:       spec.NX,
		NY:       spec.NY,
		Demand:   g.Demand(nil),
		Peak:     g.Peak(),
		Avg:      g.Avg(),
		Overflow: g.Overflow(),
	}
}

// RowStats summarizes row utilization.
type RowStats struct {
	Rows               int
	MinWidth, MaxWidth int
	AvgWidth           float64
	// Imbalance is (max-min)/avg — 0 for perfectly balanced rows.
	Imbalance float64
	// CellsPerRow statistics.
	MinCells, MaxCells int
}

// ComputeRowStats gathers utilization statistics for a placement.
func ComputeRowStats(p *layout.Placement) RowStats {
	st := RowStats{Rows: p.NumRows(), MinWidth: math.MaxInt, MinCells: math.MaxInt}
	sum := 0
	for r := 0; r < p.NumRows(); r++ {
		w := p.RowWidth(r)
		sum += w
		if w < st.MinWidth {
			st.MinWidth = w
		}
		if w > st.MaxWidth {
			st.MaxWidth = w
		}
		n := len(p.Row(r))
		if n < st.MinCells {
			st.MinCells = n
		}
		if n > st.MaxCells {
			st.MaxCells = n
		}
	}
	st.AvgWidth = float64(sum) / float64(p.NumRows())
	if st.AvgWidth > 0 {
		st.Imbalance = float64(st.MaxWidth-st.MinWidth) / st.AvgWidth
	}
	return st
}

// String summarizes the row statistics.
func (s RowStats) String() string {
	return fmt.Sprintf("rows: %d, width %d..%d (avg %.1f, imbalance %.2f), cells/row %d..%d",
		s.Rows, s.MinWidth, s.MaxWidth, s.AvgWidth, s.Imbalance, s.MinCells, s.MaxCells)
}

// WirelengthByEstimator reports the total net length under every available
// estimator — the estimator-ablation diagnostic.
func WirelengthByEstimator(p *layout.Placement) map[string]float64 {
	ckt := p.Circuit()
	out := make(map[string]float64, 3)
	for name, est := range map[string]wire.Estimator{
		"hpwl": wire.HPWL, "steiner": wire.Steiner, "rmst": wire.RMST,
	} {
		ev := wire.NewEvaluator(ckt, est)
		out[name] = wire.Total(ev.Lengths(p, nil))
	}
	return out
}

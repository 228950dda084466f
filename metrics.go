package simevo

import (
	"simevo/internal/layout"
	"simevo/internal/metrics"
)

// Placement is a completed cell placement (as returned in results' Best
// fields).
type Placement = layout.Placement

// Congestion is a bin-based routing-demand map; see metrics.Congestion.
type Congestion = metrics.Congestion

// RowStats summarizes row utilization; see metrics.RowStats.
type RowStats = metrics.RowStats

// EstimateCongestion builds a routing-congestion estimate for a placement
// with roughly nx bins across the die width (nx <= 0 selects 16).
func EstimateCongestion(p *Placement, nx int) *Congestion {
	return metrics.EstimateCongestion(p, nx)
}

// ComputeRowStats gathers row-utilization statistics for a placement.
func ComputeRowStats(p *Placement) RowStats {
	return metrics.ComputeRowStats(p)
}

// WirelengthByEstimator reports a placement's total net length under every
// available estimator (hpwl, steiner, rmst). It is a reporting diagnostic:
// the optimizer itself measures Steiner lengths only.
func WirelengthByEstimator(p *Placement) map[string]float64 {
	return metrics.WirelengthByEstimator(p)
}

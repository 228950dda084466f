package timing

import (
	"math"

	"simevo/internal/netlist"
)

// STA is the static timing analyzer behind the cost pipeline's Delay
// objective. It keeps its per-cell state in place across evaluations and
// serves the two reads the engine makes between them: per-cell and per-net
// criticality. Rebuild re-derives the whole state from the net lengths:
//
//   - arrival times in topological order (netlist.Levels), and
//   - departure times — the worst path delay from a cell's output to any
//     sink — in reverse topological order.
//
// Slack is represented deadline-free: slack(c) = MaxDelay − arr(c) −
// dep(c), so a changed critical path re-scales every criticality without
// touching the per-cell state. Per-net criticality (the allocation trial
// weight) is served from a per-net max of arr+dep over the net's
// endpoints.
//
// An STA is not safe for concurrent mutation; concurrent reads
// (Criticality, NetCriticality) are safe once Rebuild has returned.
type STA struct {
	ckt *netlist.Circuit
	lv  *netlist.Levels
	m   Model

	cd       []float64 // per-cell switching delay CD (static: widths and fan-out never change)
	arr      []float64 // arrival at the cell output (0 for pads)
	dep      []float64 // worst output-to-sink path delay; -Inf when the cell feeds no sink
	dataArr  []float64 // sink-side arrival for POs and DFF data inputs
	netDelay []float64 // interconnect delay ID per net
	adNet    []float64 // per-net max over endpoints of arr+dep
	maxDelay float64

	rebuilds uint64 // Rebuild calls (plain counter: STA is single-goroutine by contract)
}

// Rebuilds reports how many times Rebuild has run (the engine publishes it).
func (s *STA) Rebuilds() uint64 { return s.rebuilds }

// NewSTA builds the analyzer shell; Rebuild must run before any reads.
func NewSTA(ckt *netlist.Circuit, lv *netlist.Levels, m Model) *STA {
	n := len(ckt.Cells)
	s := &STA{
		ckt: ckt, lv: lv, m: m,
		cd:       make([]float64, n),
		arr:      make([]float64, n),
		dep:      make([]float64, n),
		dataArr:  make([]float64, n),
		netDelay: make([]float64, ckt.NumNets()),
		adNet:    make([]float64, ckt.NumNets()),
	}
	for id := range ckt.Cells {
		s.cd[id] = m.CellDelay(ckt, netlist.CellID(id))
	}
	return s
}

// Rebuild re-derives the full analysis from the given per-net lengths and
// returns Cost_delay, the largest sink arrival.
func (s *STA) Rebuild(lengths []float64) float64 {
	s.rebuilds++
	ckt := s.ckt
	for n := range s.netDelay {
		s.netDelay[n] = s.m.UnitWire * lengths[n]
	}
	for _, id := range s.lv.Order {
		if ckt.Cells[id].Type != netlist.Output {
			s.arr[id] = s.arrivalOf(id)
		}
	}
	for _, po := range ckt.POs {
		s.dataArr[po] = s.dataArrOf(po)
	}
	for _, ff := range ckt.DFFs {
		s.dataArr[ff] = s.dataArrOf(ff)
	}
	for i := len(s.lv.Order) - 1; i >= 0; i-- {
		id := s.lv.Order[i]
		s.dep[id] = s.depOf(id)
	}
	s.maxDelay = s.maxOverSinks()
	for n := range s.adNet {
		s.adNet[n] = s.adOf(netlist.NetID(n))
	}
	return s.maxDelay
}

// arrivalOf is the arrival recurrence: the worst fan-in arrival plus
// interconnect, plus the cell's own switching delay.
func (s *STA) arrivalOf(id netlist.CellID) float64 {
	cell := &s.ckt.Cells[id]
	switch cell.Type {
	case netlist.Input:
		return 0
	case netlist.DFF:
		return s.m.ClkToQ
	}
	worst := 0.0
	for _, in := range cell.In {
		d := s.ckt.Nets[in].Driver
		if t := s.arr[d] + s.netDelay[in]; t > worst {
			worst = t
		}
	}
	return worst + s.cd[id]
}

// dataArrOf is the sink-side arrival: the PO input arrival, or the DFF
// data arrival including setup.
func (s *STA) dataArrOf(id netlist.CellID) float64 {
	cell := &s.ckt.Cells[id]
	if cell.Type == netlist.DFF {
		in := cell.In[0]
		return s.arr[s.ckt.Nets[in].Driver] + s.netDelay[in] + s.m.Setup
	}
	worst := 0.0
	for _, in := range cell.In {
		d := s.ckt.Nets[in].Driver
		if t := s.arr[d] + s.netDelay[in]; t > worst {
			worst = t
		}
	}
	return worst
}

// depOf is the departure recurrence: the worst path delay from
// the cell's output pin to any sink (-Inf when it feeds none). Paths end
// at PO inputs (no further delay) and DFF data pins (setup penalty).
func (s *STA) depOf(id netlist.CellID) float64 {
	out := s.ckt.Cells[id].Out
	if out == netlist.NoNet {
		return math.Inf(-1)
	}
	nd := s.netDelay[out]
	best := math.Inf(-1)
	for _, sk := range s.ckt.Nets[out].Sinks {
		var t float64
		switch s.ckt.Cells[sk].Type {
		case netlist.Output:
			t = nd
		case netlist.DFF:
			t = nd + s.m.Setup
		default:
			t = nd + s.cd[sk] + s.dep[sk]
		}
		if t > best {
			best = t
		}
	}
	return best
}

// maxOverSinks re-derives Cost_delay from the sink arrivals.
func (s *STA) maxOverSinks() float64 {
	max := 0.0
	for _, po := range s.ckt.POs {
		if s.dataArr[po] > max {
			max = s.dataArr[po]
		}
	}
	for _, ff := range s.ckt.DFFs {
		if s.dataArr[ff] > max {
			max = s.dataArr[ff]
		}
	}
	return max
}

// adOf is the per-net criticality input: the worst arr+dep over the net's
// endpoint cells.
func (s *STA) adOf(n netlist.NetID) float64 {
	best := math.Inf(-1)
	net := &s.ckt.Nets[n]
	if d := net.Driver; d != netlist.NoCell {
		if ad := s.arr[d] + s.dep[d]; ad > best {
			best = ad
		}
	}
	for _, sk := range net.Sinks {
		if ad := s.arr[sk] + s.dep[sk]; ad > best {
			best = ad
		}
	}
	return best
}

// critOf maps an arr+dep sum to [0,1] criticality: slack = MaxDelay−ad,
// criticality = 1 − slack/MaxDelay = ad/MaxDelay, clamped; cells feeding
// no sink (ad = −Inf) have infinite slack and pin to 0.
func (s *STA) critOf(ad float64) float64 {
	if s.maxDelay <= 0 || math.IsInf(ad, -1) {
		return 0
	}
	c := ad / s.maxDelay
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// Criticality returns the cell's path criticality in [0,1].
func (s *STA) Criticality(id netlist.CellID) float64 {
	return s.critOf(s.arr[id] + s.dep[id])
}

// NetCriticality returns the worst endpoint criticality of a net — the
// delay weight of allocation trials.
func (s *STA) NetCriticality(n netlist.NetID) float64 {
	return s.critOf(s.adNet[n])
}

// Package timing implements the path-based delay model of the paper's
// Section 2:
//
//	T_π = Σ (CD_i + ID_i)    Cost_delay = max_π T_π
//
// where CD is the switching delay of the cell driving a net (technology
// dependent, placement independent) and ID is the interconnect delay of the
// net (proportional to its estimated wirelength, placement dependent).
//
// STA is a static timing analysis over the combinational view of the
// circuit (primary inputs and flip-flop outputs are path sources; primary
// outputs and flip-flop data inputs are path sinks): forward arrival-time
// propagation, backward departure-time propagation, and per-cell and
// per-net criticality, which the delay goodness measure and the allocation
// trial weights read.
package timing

import "simevo/internal/netlist"

// Model holds the delay parameters. Units are abstract "delay units";
// interconnect delay scales with net length in layout sites.
type Model struct {
	// Base is the intrinsic switching delay per gate type.
	Base map[netlist.GateType]float64
	// LoadPerSink adds output-load delay per fan-out pin.
	LoadPerSink float64
	// UnitWire is the interconnect delay per site of estimated net length.
	UnitWire float64
	// ClkToQ is the flip-flop clock-to-output delay (path source offset).
	ClkToQ float64
	// Setup is the flip-flop data setup time (path sink penalty).
	Setup float64
}

// DefaultModel returns delay parameters with relative magnitudes typical of
// standard-cell libraries: inverters fastest, XOR-class gates slowest, and
// interconnect delay comparable to gate delay at average net lengths.
func DefaultModel() Model {
	return Model{
		Base: map[netlist.GateType]float64{
			netlist.Not: 1.0, netlist.Buf: 1.0,
			netlist.Nand: 1.2, netlist.Nor: 1.2,
			netlist.And: 1.5, netlist.Or: 1.5,
			netlist.Xor: 2.0, netlist.Xnor: 2.0,
		},
		LoadPerSink: 0.2,
		UnitWire:    0.08,
		ClkToQ:      2.0,
		Setup:       1.0,
	}
}

// CellDelay returns the switching delay CD of a cell: intrinsic delay plus
// output load. Pads have zero delay; a flip-flop's delay is ClkToQ, the
// offset of the paths it sources.
func (m Model) CellDelay(ckt *netlist.Circuit, id netlist.CellID) float64 {
	cell := &ckt.Cells[id]
	switch cell.Type {
	case netlist.Input, netlist.Output:
		return 0
	case netlist.DFF:
		return m.ClkToQ
	}
	d := m.Base[cell.Type]
	if cell.Out != netlist.NoNet {
		d += m.LoadPerSink * float64(len(ckt.Nets[cell.Out].Sinks))
	}
	return d
}

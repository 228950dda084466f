// Package netlist models gate-level circuits for standard-cell placement.
//
// The model follows the ISCAS-89 benchmark conventions used by the paper:
// a circuit is a set of single-output cells (combinational gates and D
// flip-flops) connected by multi-terminal nets, plus primary input and
// output pads. Each non-pad cell drives exactly one net; a net has one
// driver and one or more sinks.
//
// For timing and switching-activity analysis the sequential circuit is
// viewed combinationally: DFF outputs act as path sources (alongside primary
// inputs) and DFF inputs act as path sinks (alongside primary outputs).
package netlist

import "fmt"

// GateType identifies the logic function of a cell.
type GateType uint8

// Gate types. Input and Output are I/O pads (fixed, not placed in rows);
// all other types are movable cells. Macro is a movable cell of unknown
// logic function — physical formats (Bookshelf) describe geometry and
// connectivity but not truth tables, so Macro cells act as combinational
// path endpoints (like DFFs) and carry a neutral 0.5 signal probability.
const (
	Input GateType = iota
	Output
	DFF
	And
	Nand
	Or
	Nor
	Not
	Xor
	Xnor
	Buf
	Macro
)

var gateNames = [...]string{
	Input: "INPUT", Output: "OUTPUT", DFF: "DFF",
	And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
	Not: "NOT", Xor: "XOR", Xnor: "XNOR", Buf: "BUFF",
	Macro: "MACRO",
}

// String returns the ISCAS-89 spelling of the gate type.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// ParseGateType converts an ISCAS-89 function name (case-insensitive) to a
// GateType.
func ParseGateType(s string) (GateType, error) {
	up := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up) {
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "NOT", "INV":
		return Not, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "DFF":
		return DFF, nil
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// CellID indexes Circuit.Cells. NoCell marks an absent reference.
type CellID int32

// NetID indexes Circuit.Nets. NoNet marks an absent reference.
type NetID int32

// Sentinel values for absent references.
const (
	NoCell CellID = -1
	NoNet  NetID  = -1
)

// Cell is a circuit instance: a logic gate, a D flip-flop, or an I/O pad.
type Cell struct {
	ID   CellID
	Name string
	Type GateType
	// Width is the cell's physical width in placement sites. Pads have
	// width 0 (they sit on the chip boundary, not in rows).
	Width int
	// Out is the net driven by this cell. Output pads drive no net.
	Out NetID
	// In lists the cell's input nets in pin order. Input pads have none.
	In []NetID
}

// IsPad reports whether the cell is a primary I/O pad (fixed location).
func (c *Cell) IsPad() bool { return c.Type == Input || c.Type == Output }

// Net is a signal with a single driver and one or more sink pins.
type Net struct {
	ID     NetID
	Name   string
	Driver CellID
	Sinks  []CellID // may contain repeats when a cell has two pins on the net
}

// Degree returns the number of pins on the net (driver + sinks).
func (n *Net) Degree() int { return 1 + len(n.Sinks) }

// Circuit is a complete gate-level design.
//
// A circuit is read-only once validated: Validate (which Builder.Build,
// ParseBench and the Bookshelf loader run) levelizes it and keeps the
// result, and engines, cost pipelines and parallel ranks share the one
// circuit and its Levels without copying. Editing cells or nets after
// that requires calling Validate again.
type Circuit struct {
	Name  string
	Cells []Cell
	Nets  []Net

	// PIs and POs list input and output pad cells; DFFs lists flip-flops.
	PIs, POs, DFFs []CellID

	movable []CellID // cached list of non-pad cells
	levels  *Levels  // set by Validate; returned by Levelize
}

// Cell returns the cell with the given id.
func (c *Circuit) Cell(id CellID) *Cell { return &c.Cells[id] }

// Net returns the net with the given id.
func (c *Circuit) Net(id NetID) *Net { return &c.Nets[id] }

// NumCells returns the total number of cells including pads.
func (c *Circuit) NumCells() int { return len(c.Cells) }

// NumNets returns the number of nets.
func (c *Circuit) NumNets() int { return len(c.Nets) }

// Movable returns the ids of all placeable (non-pad) cells. The returned
// slice is cached and must not be modified.
func (c *Circuit) Movable() []CellID {
	if c.movable == nil {
		n := 0
		for i := range c.Cells {
			if !c.Cells[i].IsPad() {
				n++
			}
		}
		c.movable = make([]CellID, 0, n)
		for i := range c.Cells {
			if !c.Cells[i].IsPad() {
				c.movable = append(c.movable, CellID(i))
			}
		}
	}
	return c.movable
}

// NumMovable returns the number of placeable cells.
func (c *Circuit) NumMovable() int { return len(c.Movable()) }

// TotalWidth returns the summed width of all movable cells in sites.
func (c *Circuit) TotalWidth() int {
	total := 0
	for _, id := range c.Movable() {
		total += c.Cells[id].Width
	}
	return total
}

// CellNets appends to dst the distinct nets incident to the cell (its output
// net plus all input nets) and returns the extended slice.
func (c *Circuit) CellNets(id CellID, dst []NetID) []NetID {
	cell := &c.Cells[id]
	if cell.Out != NoNet {
		dst = append(dst, cell.Out)
	}
	for _, n := range cell.In {
		dup := false
		for _, seen := range dst {
			if seen == n {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, n)
		}
	}
	return dst
}

// DefaultWidth returns the physical width in sites used for a gate of the
// given type and fan-in, mirroring the relative area of typical standard
// cells: inverters and buffers are narrowest, flip-flops widest, and
// multi-input gates grow with fan-in.
func DefaultWidth(t GateType, fanin int) int {
	switch t {
	case Input, Output:
		return 0
	case Not, Buf:
		return 1
	case DFF:
		return 4
	default:
		w := 1 + fanin
		if w > 6 {
			w = 6
		}
		return w
	}
}

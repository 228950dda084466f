package netlist

import (
	"fmt"
	"slices"
)

// Builder constructs circuits incrementally, by name. It is used by the
// .bench parser and by the synthetic circuit generator.
//
// Usage: declare pads and gates with AddInput/AddOutput/AddGate, then call
// Build, which resolves signal names to nets, creates the net objects, and
// validates the structure.
type Builder struct {
	name  string
	cells []protoCell
	byNam map[string]int
	errs  []error
	pins  []string // current backing array the cells' input lists are carved from
}

type protoCell struct {
	name   string
	typ    GateType
	width  int
	inputs []string // signal names (driver cell names)
}

// NewBuilder returns a builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byNam: make(map[string]int)}
}

// AddInput declares a primary input pad driving the signal of the same name.
func (b *Builder) AddInput(name string) {
	b.add(protoCell{name: name, typ: Input})
}

// AddOutput declares a primary output pad consuming the given signal.
func (b *Builder) AddOutput(signal string) {
	b.add(protoCell{name: "out:" + signal, typ: Output, inputs: b.carve(signal)})
}

// AddGate declares a gate (or DFF) named after the signal it drives, with
// the given input signal names. Width 0 selects DefaultWidth.
func (b *Builder) AddGate(name string, typ GateType, inputs []string, width int) {
	if width == 0 {
		width = DefaultWidth(typ, len(inputs))
	}
	b.add(protoCell{name: name, typ: typ, width: width, inputs: b.carve(inputs...)})
}

// pinChunk is the number of input names one backing array of the
// builder holds.
const pinChunk = 2048

// carve copies an input list into the builder's current backing array and
// returns the capacity-capped window holding it, so callers may reuse
// their slice. A full array is left to the lists already carved from it
// and a new one started, so no name is copied twice.
func (b *Builder) carve(inputs ...string) []string {
	if cap(b.pins)-len(b.pins) < len(inputs) {
		b.pins = make([]string, 0, max(pinChunk, len(inputs)))
	}
	start := len(b.pins)
	b.pins = append(b.pins, inputs...)
	return b.pins[start:len(b.pins):len(b.pins)]
}

// Grow reserves room for n more cells, so a caller that knows the
// circuit's size declares it without the builder regrowing.
func (b *Builder) Grow(n int) {
	b.cells = slices.Grow(b.cells, n)
	if len(b.byNam) == 0 {
		b.byNam = make(map[string]int, n)
	}
}

func (b *Builder) add(p protoCell) {
	if _, dup := b.byNam[p.name]; dup {
		b.errs = append(b.errs, fmt.Errorf("netlist: duplicate cell %q", p.name))
		return
	}
	b.byNam[p.name] = len(b.cells)
	b.cells = append(b.cells, p)
}

// Build resolves all signal references and returns the finished circuit.
// Every cell's input nets and every net's sinks are carved out of two
// exactly sized arrays, so building allocates little beyond the circuit.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	ckt := &Circuit{Name: b.name}
	ckt.Cells = make([]Cell, len(b.cells))
	nets, pins := 0, 0
	for _, p := range b.cells {
		if p.typ != Output {
			nets++
		}
		pins += len(p.inputs)
	}
	ckt.Nets = make([]Net, 0, nets)

	// First pass: create cells and one net per driving cell.
	for i, p := range b.cells {
		id := CellID(i)
		ckt.Cells[i] = Cell{ID: id, Name: p.name, Type: p.typ, Width: p.width, Out: NoNet}
		switch p.typ {
		case Input:
			ckt.PIs = append(ckt.PIs, id)
		case Output:
			ckt.POs = append(ckt.POs, id)
		case DFF:
			ckt.DFFs = append(ckt.DFFs, id)
		}
		if p.typ != Output {
			nid := NetID(len(ckt.Nets))
			ckt.Nets = append(ckt.Nets, Net{ID: nid, Name: p.name, Driver: id})
			ckt.Cells[i].Out = nid
		}
	}

	// Second pass: resolve input pins to the nets of their driving cells
	// and count each net's sinks.
	ins := make([]NetID, pins)
	fanout := make([]int, nets)
	off := 0
	for i, p := range b.cells {
		if len(p.inputs) == 0 {
			continue
		}
		in := ins[off : off+len(p.inputs) : off+len(p.inputs)]
		off += len(p.inputs)
		for k, sig := range p.inputs {
			j, ok := b.byNam[sig]
			if !ok || b.cells[j].typ == Output {
				return nil, fmt.Errorf("netlist: cell %q references undriven signal %q", p.name, sig)
			}
			in[k] = ckt.Cells[j].Out
			fanout[in[k]]++
		}
		ckt.Cells[i].In = in
	}

	// Third pass: fill the sinks in cell order, each net's into its own
	// capacity-capped window.
	sinks := make([]CellID, pins)
	off = 0
	for n, c := range fanout {
		if c > 0 {
			ckt.Nets[n].Sinks = sinks[off : off : off+c]
		}
		off += c
	}
	for i := range ckt.Cells {
		for _, nid := range ckt.Cells[i].In {
			ckt.Nets[nid].Sinks = append(ckt.Nets[nid].Sinks, CellID(i))
		}
	}

	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	return ckt, nil
}

package layout

import (
	"encoding/binary"
	"fmt"

	"simevo/internal/netlist"
)

// The full-placement wire format, which Type III solutions, the cluster
// worker API and the metaheuristics ship between ranks. All values are
// little-endian int32:
//
//	numRows, then per row: count, cellID...
//
// Sizes are what the network model charges for, so the encoding is kept
// close to what the paper's C/MPI implementation would have sent (4 bytes
// per cell reference). The Type I and II rounds send slot moves instead
// (internal/parallel's slotPatch).

// Encode serializes the full slot assignment.
func (p *Placement) Encode() []byte {
	n := 1 + p.numRows
	for r := range p.rows {
		n += len(p.rows[r])
	}
	buf := make([]byte, 0, 4*n)
	buf = appendI32(buf, int32(p.numRows))
	for r := range p.rows {
		buf = appendI32(buf, int32(len(p.rows[r])))
		for _, id := range p.rows[r] {
			buf = appendI32(buf, int32(id))
		}
	}
	return buf
}

// DecodePlacement reconstructs a placement of ckt from Encode output.
func DecodePlacement(ckt *netlist.Circuit, data []byte) (*Placement, error) {
	p, _, err := DecodePlacementPrefix(ckt, data)
	return p, err
}

// DecodePlacementPrefix decodes a placement from the front of data and
// returns the unconsumed remainder, for messages that append further
// payload after the placement.
func DecodePlacementPrefix(ckt *netlist.Circuit, data []byte) (*Placement, []byte, error) {
	d := decoder{data: data}
	numRows, err := d.i32()
	if err != nil {
		return nil, nil, err
	}
	// Every row carries at least its 4-byte count, so the row count is
	// bounded by the bytes left before anything is allocated for it.
	if numRows <= 0 || int(numRows) > d.left()/4 {
		return nil, nil, fmt.Errorf("layout: decoded row count %d out of range", numRows)
	}
	p := New(ckt, int(numRows))
	for r := 0; r < int(numRows); r++ {
		count, err := d.i32()
		if err != nil {
			return nil, nil, err
		}
		if count < 0 || int(count) > len(ckt.Cells) || int(count) > d.left()/4 {
			return nil, nil, fmt.Errorf("layout: decoded row %d count %d out of range", r, count)
		}
		row := make([]netlist.CellID, count)
		for i := range row {
			v, err := d.i32()
			if err != nil {
				return nil, nil, err
			}
			if v < 0 || int(v) >= len(ckt.Cells) {
				return nil, nil, fmt.Errorf("layout: decoded cell id %d out of range", v)
			}
			row[i] = netlist.CellID(v)
			p.slotOf[v] = SlotRef{Row: int32(r), Idx: int32(i)}
		}
		p.rows[r] = row
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	p.dirty = true
	p.Recompute()
	return p, d.data[d.off:], nil
}

func appendI32(buf []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

type decoder struct {
	data []byte
	off  int
}

// left returns the number of bytes not yet decoded.
func (d *decoder) left() int { return len(d.data) - d.off }

func (d *decoder) i32() (int32, error) {
	if d.off+4 > len(d.data) {
		return 0, fmt.Errorf("layout: truncated encoding at offset %d", d.off)
	}
	v := int32(binary.LittleEndian.Uint32(d.data[d.off:]))
	d.off += 4
	return v, nil
}

package parallel

import (
	"encoding/binary"
	"fmt"
	"math"

	"simevo/internal/layout"
	"simevo/internal/netlist"
)

// Wire helpers for the strategy protocols. All integers are little-endian.

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func encodeF64s(vals []float64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = appendF64(buf, v)
	}
	return buf
}

func decodeF64s(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("parallel: float payload length %d not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// slotPatch is the one move format of the Type I and Type II rounds, in
// both directions: a bitmap over the global slot positions (row-major: row
// r's slots follow row r-1's) marking every slot whose occupant differs
// from a reference state both ends hold, then the new occupant of each
// marked slot as a uvarint cell id, in slot order. Row lengths never change
// within a run, so both ends derive the positions from their own placement.
// A patch decodes to the slot deltas layout.Placement.ApplySlotDeltas takes.
type slotPatch struct {
	start []int            // global position of each row's first slot; start[rows] is the slot count
	ref   []netlist.CellID // occupant of every slot in the reference state
	seen  []bool           // per cell: decode scratch, all false between calls
	owned []bool           // per row: decode scratch, all false between calls
	moves []layout.SlotDelta
}

// newSlotPatch derives the slot positions from p's row lengths and takes
// p's slots as the reference state.
func newSlotPatch(p *layout.Placement) *slotPatch {
	s := &slotPatch{
		start: make([]int, p.NumRows()+1),
		seen:  make([]bool, len(p.Circuit().Cells)),
		owned: make([]bool, p.NumRows()),
	}
	for r := 0; r < p.NumRows(); r++ {
		s.start[r+1] = s.start[r] + len(p.Row(r))
	}
	s.ref = make([]netlist.CellID, s.start[p.NumRows()])
	s.snapshot(p)
	return s
}

// snapshot takes p's slots as the reference state.
func (s *slotPatch) snapshot(p *layout.Placement) {
	for r := 0; r < p.NumRows(); r++ {
		copy(s.ref[s.start[r]:], p.Row(r))
	}
}

// appendMoves appends the patch from the reference state to p and makes p
// the reference state.
func (s *slotPatch) appendMoves(buf []byte, p *layout.Placement) []byte {
	bits := len(buf)
	buf = append(buf, make([]byte, (len(s.ref)+7)/8)...)
	for r := 0; r < p.NumRows(); r++ {
		for i, id := range p.Row(r) {
			if k := s.start[r] + i; s.ref[k] != id {
				s.ref[k] = id
				buf[bits+k/8] |= 1 << (k % 8)
				buf = binary.AppendUvarint(buf, uint64(id))
			}
		}
	}
	return buf
}

// apply decodes a patch and applies its moves to p; the caller must
// Recompute before reading coordinates. It rejects, leaving p untouched, a
// patch that ApplySlotDeltas could not apply whole: a cell id out of
// range, a target outside rows (nil admits every row), or moves that are
// not a permutation of the slots their cells vacate.
func (s *slotPatch) apply(data []byte, p *layout.Placement, rows []int) error {
	for _, r := range rows {
		s.owned[r] = true
	}
	err := s.decode(data, rows == nil)
	for _, r := range rows {
		s.owned[r] = false
	}
	if err == nil {
		err = s.permutation(p)
		for _, m := range s.moves {
			s.seen[m.Cell] = false
		}
	}
	if err != nil {
		return err
	}
	return p.ApplySlotDeltas(s.moves)
}

// decode parses a patch into s.moves, admitting targets in any row or only
// in owned rows.
func (s *slotPatch) decode(data []byte, anyRow bool) error {
	s.moves = s.moves[:0]
	nb := (len(s.ref) + 7) / 8
	if len(data) < nb {
		return fmt.Errorf("parallel: patch of %d bytes, bitmap needs %d", len(data), nb)
	}
	bits, ids := data[:nb], data[nb:]
	if tail := len(s.ref) % 8; tail != 0 && bits[nb-1]>>tail != 0 {
		return fmt.Errorf("parallel: patch marks slots past the last row")
	}
	for r := 0; r+1 < len(s.start); r++ {
		for k := s.start[r]; k < s.start[r+1]; k++ {
			if bits[k/8]&(1<<(k%8)) == 0 {
				continue
			}
			if !anyRow && !s.owned[r] {
				return fmt.Errorf("parallel: patch moves a cell into row %d, outside the sender's rows", r)
			}
			// A uvarint whose last byte is 0 has a redundant high group:
			// only the shortest encoding of an id is accepted.
			id, n := binary.Uvarint(ids)
			if n <= 0 || id >= uint64(len(s.seen)) || (n > 1 && ids[n-1] == 0) {
				return fmt.Errorf("parallel: bad cell id in patch slot %d", k)
			}
			ids = ids[n:]
			s.moves = append(s.moves, layout.SlotDelta{Cell: netlist.CellID(id), Row: int32(r), Idx: int32(k - s.start[r])})
		}
	}
	if len(ids) != 0 {
		return fmt.Errorf("parallel: %d bytes after the patch", len(ids))
	}
	return nil
}

// permutation checks that the moves are a permutation of the slots their
// cells vacate in p, marking each moved cell in seen. The targets are
// distinct slots, so their occupants are distinct cells; when no cell is
// moved twice and every occupant is a moved cell, the two sets are equal.
func (s *slotPatch) permutation(p *layout.Placement) error {
	for _, m := range s.moves {
		if s.seen[m.Cell] {
			return fmt.Errorf("parallel: patch moves cell %d twice", m.Cell)
		}
		s.seen[m.Cell] = true
	}
	for _, m := range s.moves {
		if occ := p.Row(int(m.Row))[m.Idx]; occ == netlist.NoCell || !s.seen[occ] {
			return fmt.Errorf("parallel: patch target %d:%d is not vacated by its moves", m.Row, m.Idx)
		}
	}
	return nil
}

// encodeAssignment flattens a row assignment: ranks, then per rank a row
// count followed by the row indices.
func encodeAssignment(assign [][]int) []byte {
	n := 1
	for _, rows := range assign {
		n += 1 + len(rows)
	}
	buf := make([]byte, 0, 4*n)
	buf = appendU32(buf, uint32(len(assign)))
	for _, rows := range assign {
		buf = appendU32(buf, uint32(len(rows)))
		for _, r := range rows {
			buf = appendU32(buf, uint32(r))
		}
	}
	return buf
}

func decodeAssignment(data []byte) ([][]int, []byte, error) {
	off := 0
	next := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("parallel: truncated assignment at %d", off)
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	// Every rank carries at least its 4-byte row count and every row its
	// 4-byte index, so both counts are bounded by the bytes left before
	// anything is allocated for them.
	ranks, err := next()
	if err != nil {
		return nil, nil, err
	}
	if uint64(ranks) > uint64(len(data)-off)/4 {
		return nil, nil, fmt.Errorf("parallel: rank count %d exceeds the message", ranks)
	}
	out := make([][]int, ranks)
	for j := range out {
		count, err := next()
		if err != nil {
			return nil, nil, err
		}
		if uint64(count) > uint64(len(data)-off)/4 {
			return nil, nil, fmt.Errorf("parallel: row count %d exceeds the message", count)
		}
		rows := make([]int, count)
		for i := range rows {
			v, err := next()
			if err != nil {
				return nil, nil, err
			}
			rows[i] = int(v)
		}
		out[j] = rows
	}
	return out, data[off:], nil
}

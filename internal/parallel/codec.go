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

// Type II broadcast payload kinds: a full placement encoding, or a batch of
// coordinate deltas patching the previous broadcast state in place.
const (
	bcastFull  = 0xF1
	bcastDelta = 0xD2
)

// appendSlotDeltas serializes a slot-delta batch: count, then per entry the
// cell id and its target slot — 12 bytes per moved cell, against 4 bytes
// per cell (plus row headers) for a full placement.
func appendSlotDeltas(buf []byte, ds []layout.SlotDelta) []byte {
	buf = appendU32(buf, uint32(len(ds)))
	for _, d := range ds {
		buf = appendU32(buf, uint32(d.Cell))
		buf = appendU32(buf, uint32(d.Row))
		buf = appendU32(buf, uint32(d.Idx))
	}
	return buf
}

// decodeSlotDeltas parses appendSlotDeltas output. Slot validity is checked
// by layout.Placement.ApplySlotDeltas against the live placement.
func decodeSlotDeltas(data []byte) ([]layout.SlotDelta, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("parallel: truncated delta batch (%d bytes)", len(data))
	}
	count := binary.LittleEndian.Uint32(data)
	if count > 1<<24 {
		return nil, fmt.Errorf("parallel: absurd delta count %d", count)
	}
	if len(data) != 4+12*int(count) {
		return nil, fmt.Errorf("parallel: delta batch of %d entries has %d bytes", count, len(data))
	}
	out := make([]layout.SlotDelta, count)
	for i := range out {
		off := 4 + 12*i
		out[i] = layout.SlotDelta{
			Cell: netlist.CellID(binary.LittleEndian.Uint32(data[off:])),
			Row:  int32(binary.LittleEndian.Uint32(data[off+4:])),
			Idx:  int32(binary.LittleEndian.Uint32(data[off+8:])),
		}
	}
	return out, nil
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

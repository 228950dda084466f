package parallel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// permuteSlots returns a copy of base whose given cells trade slots by a
// random permutation — the shape allocation produces (row lengths never
// change).
func permuteSlots(base *layout.Placement, cells []netlist.CellID, seed uint64) *layout.Placement {
	p := base.Clone()
	refs := make([]layout.SlotRef, len(cells))
	for i, id := range cells {
		refs[i] = p.RemoveToHole(id)
	}
	for i, j := range rng.New(seed).Perm(len(cells)) {
		p.FillHole(refs[j], cells[i])
	}
	p.Recompute()
	return p
}

// rowCells returns the cells of the given rows.
func rowCells(p *layout.Placement, rows ...int) []netlist.CellID {
	var cells []netlist.CellID
	for _, r := range rows {
		cells = append(cells, p.Row(r)...)
	}
	return cells
}

// TestSlotDeltaCodecRoundTrip asserts that a patch carries one placement
// to another: a broadcast patch over any rows, a reply patch confined to
// its sender's rows. Corrupt patches are rejected with the receiver's
// placement untouched.
func TestSlotDeltaCodecRoundTrip(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 2006)
	base := layout.NewRandom(prob.Ckt, 10, rng.New(3))
	target := permuteSlots(base, prob.Ckt.Movable()[:24], 9)

	enc := newSlotPatch(base)
	data := enc.appendMoves(nil, target)
	slots := len(enc.ref)
	moved := len(base.DiffSlotsTo(target.SnapshotSlots(nil), nil))
	if moved == 0 {
		t.Fatal("slot permutation moved no cell")
	}
	// One bit per slot, then one or two bytes per id on this circuit.
	if n := len(data); n < (slots+7)/8+moved || n > (slots+7)/8+2*moved {
		t.Fatalf("patch of %d moves over %d slots is %d bytes", moved, slots, n)
	}
	got := base.Clone()
	if err := newSlotPatch(got).apply(data, got, nil); err != nil {
		t.Fatal(err)
	}
	got.Recompute()
	if got.Fingerprint() != target.Fingerprint() {
		t.Fatal("patch did not reproduce the target placement")
	}
	// The encoder's reference state is now the target.
	if again := enc.appendMoves(nil, target); !bytes.Equal(again, make([]byte, (slots+7)/8)) {
		t.Fatalf("second patch of an unchanged placement is %x", again)
	}

	// A reply: moves within rows 2 and 5 only.
	reply := permuteSlots(base, rowCells(base, 2, 5), 4)
	data = newSlotPatch(base).appendMoves(nil, reply)
	got = base.Clone()
	if err := newSlotPatch(got).apply(data, got, []int{5, 2}); err != nil {
		t.Fatal(err)
	}
	got.Recompute()
	if got.Fingerprint() != reply.Fingerprint() {
		t.Fatal("reply patch did not reproduce the sender's rows")
	}

	// Corrupt patches: a swap's two marked slots with bad ids, and
	// damaged framing.
	mov := prob.Ckt.Movable()
	swap := base.Clone()
	swap.SwapCells(mov[0], mov[1])
	one := newSlotPatch(base).appendMoves(nil, swap)
	nb := (slots + 7) / 8
	sp := newSlotPatch(base)
	if err := sp.decode(one, true); err != nil || len(sp.moves) != 2 {
		t.Fatalf("swap patch decoded to %v, %v", sp.moves, err)
	}
	a, b := uint64(sp.moves[0].Cell), uint64(sp.moves[1].Cell)
	withIDs := func(ids ...[]byte) []byte {
		buf := append([]byte(nil), one[:nb]...)
		for _, id := range ids {
			buf = append(buf, id...)
		}
		return buf
	}
	id := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	nonMinimal := append(id(a), 0)
	nonMinimal[len(nonMinimal)-2] |= 0x80
	pastEnd := append([]byte(nil), one...)
	pastEnd[nb-1] |= 0x80
	bad := map[string]struct {
		data []byte
		rows []int
	}{
		"outside the sender's rows": {data, []int{2}},
		"truncated bitmap":          {one[:nb-1], nil},
		"missing id":                {one[:len(one)-1], nil},
		"trailing byte":             {append(append([]byte(nil), one...), 0), nil},
		"id out of range":           {withIDs(id(uint64(len(prob.Ckt.Cells))), id(b)), nil},
		"non-minimal id":            {withIDs(nonMinimal, id(b)), nil},
		"cell moved twice":          {withIDs(id(a), id(a)), nil},
		"target not vacated":        {withIDs(id(a), id(uint64(mov[2]))), nil},
	}
	if slots%8 != 0 {
		bad["slot past the last row"] = struct {
			data []byte
			rows []int
		}{pastEnd, nil}
	}
	for name, bc := range bad {
		got := base.Clone()
		if err := newSlotPatch(got).apply(bc.data, got, bc.rows); err == nil {
			t.Errorf("%s: patch accepted", name)
		}
		if got.Fingerprint() != base.Fingerprint() {
			t.Errorf("%s: rejected patch changed the placement", name)
		}
	}
}

// FuzzSlotDeltaDecode feeds arbitrary bytes to the patch decoder, as a
// broadcast and as a reply from the sender of rows 1 and 3. A rejected
// patch must leave the placement's Fingerprint unchanged; an accepted one
// must apply and leave a valid placement that a patch against the base
// reproduces.
func FuzzSlotDeltaDecode(f *testing.F) {
	ckt, err := gen.Generate(gen.Params{Name: "fz", Gates: 10, DFFs: 1, PIs: 2, POs: 2, Depth: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	base := layout.NewRandom(ckt, 4, rng.New(7))
	patchTo := func(p *layout.Placement) []byte { return newSlotPatch(base).appendMoves(nil, p) }
	f.Add(patchTo(base))
	f.Add(patchTo(permuteSlots(base, ckt.Movable(), 1)))
	f.Add(patchTo(permuteSlots(base, rowCells(base, 1, 3), 2)))
	f.Add(patchTo(permuteSlots(base, ckt.Movable()[:3], 3))[1:])
	f.Add([]byte{})
	replyRows := []int{1, 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rows := range [][]int{nil, replyRows} {
			p := base.Clone()
			if err := newSlotPatch(p).apply(data, p, rows); err != nil {
				if p.Fingerprint() != base.Fingerprint() {
					t.Fatalf("rejected patch (%v) changed the placement", err)
				}
				continue
			}
			p.Recompute()
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted patch left an invalid placement: %v", err)
			}
			q := base.Clone()
			if err := newSlotPatch(q).apply(patchTo(p), q, rows); err != nil {
				t.Fatalf("re-encoded patch rejected: %v", err)
			}
			q.Recompute()
			if q.Fingerprint() != p.Fingerprint() {
				t.Fatal("re-encoded patch reproduces a different placement")
			}
		}
	})
}

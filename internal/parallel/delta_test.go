package parallel

import (
	"bytes"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/rng"
)

// TestSlotDeltaCodecRoundTrip asserts encode → decode is the identity on
// delta batches produced by real placement diffs.
func TestSlotDeltaCodecRoundTrip(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 2006)
	base := layout.NewRandom(prob.Ckt, 10, rng.New(3))
	snap := base.SnapshotSlots(nil)
	// The target differs from the base by a slot permutation — the shape
	// allocation merges produce (row lengths never change).
	target := base.Clone()
	r := rng.New(9)
	movable := prob.Ckt.Movable()
	cells := movable[:24]
	refs := make([]layout.SlotRef, len(cells))
	for i, id := range cells {
		refs[i] = target.RemoveToHole(id)
	}
	for i, j := range r.Perm(len(cells)) {
		target.FillHole(refs[j], cells[i])
	}
	target.Recompute()
	deltas := target.DiffSlots(snap, nil)
	if len(deltas) == 0 {
		t.Fatal("slot permutation produced no deltas")
	}
	buf := appendSlotDeltas(nil, deltas)
	got, err := decodeSlotDeltas(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(deltas) {
		t.Fatalf("decoded %d deltas, want %d", len(got), len(deltas))
	}
	for i := range got {
		if got[i] != deltas[i] {
			t.Fatalf("delta %d = %+v, want %+v", i, got[i], deltas[i])
		}
	}
	// The round-tripped batch must patch the base to the target state.
	if err := base.ApplySlotDeltas(got); err != nil {
		t.Fatal(err)
	}
	base.Recompute()
	if base.Fingerprint() != target.Fingerprint() {
		t.Fatal("round-tripped deltas did not reproduce the target placement")
	}
}

// FuzzSlotDeltaDecode hardens the delta decoder against corrupt payloads:
// it must return an error or a valid batch, never panic, and must be
// byte-exact on re-encode of whatever it accepts.
func FuzzSlotDeltaDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(appendSlotDeltas(nil, []layout.SlotDelta{{Cell: 3, Row: 1, Idx: 2}}))
	f.Add(appendSlotDeltas(nil, []layout.SlotDelta{{Cell: 0, Row: 0, Idx: 0}, {Cell: 9, Row: 4, Idx: 7}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeSlotDeltas(data)
		if err != nil {
			return
		}
		if got := appendSlotDeltas(nil, ds); !bytes.Equal(got, data) {
			t.Fatalf("re-encode of accepted batch differs: %x vs %x", got, data)
		}
	})
}

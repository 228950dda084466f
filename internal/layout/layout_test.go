package layout

import (
	"testing"
	"testing/quick"

	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

func testCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "lay", Gates: 120, DFFs: 10, PIs: 6, POs: 6, Depth: 8, Seed: 42,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ckt
}

func TestNewRandomValid(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 0, rng.New(1))
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumRows() < 8 {
		t.Fatalf("NumRows = %d, want >= 8", p.NumRows())
	}
}

func TestRandomInitBalanced(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(2))
	min, max := 1<<30, 0
	for r := 0; r < p.NumRows(); r++ {
		w := p.RowWidth(r)
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	// Greedy width balancing should keep rows within one max cell width.
	if max-min > 8 {
		t.Fatalf("row width spread %d..%d too wide", min, max)
	}
}

func TestCoordinatesArePrefixSums(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(3))
	for r := 0; r < p.NumRows(); r++ {
		xoff := 0.0
		for _, id := range p.Row(r) {
			w := float64(ckt.Cells[id].Width)
			if got := p.X(id); got != xoff+w/2 {
				t.Fatalf("cell %d x = %v, want %v", id, got, xoff+w/2)
			}
			if got := p.Y(id); got != RowY(r) {
				t.Fatalf("cell %d y = %v, want %v", id, got, RowY(r))
			}
			xoff += w
		}
	}
}

func TestPadCoordinatesFixed(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(4))
	for _, pi := range ckt.PIs {
		if p.X(pi) >= 0 {
			t.Fatalf("input pad x = %v, want < 0 (left edge)", p.X(pi))
		}
	}
	for _, po := range ckt.POs {
		if p.X(po) <= p.AvgRowWidth() {
			t.Fatalf("output pad x = %v, want > die width", p.X(po))
		}
	}
}

func TestRemoveFillHole(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(5))
	id := ckt.Movable()[0]
	ref := p.RemoveToHole(id)
	if p.Slot(id) != NoSlot {
		t.Fatal("removed cell still has a slot")
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a placement with a hole")
	}
	p.FillHole(ref, id)
	p.Recompute()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after refill: %v", err)
	}
	if p.Slot(id) != ref {
		t.Fatalf("refilled slot = %v, want %v", p.Slot(id), ref)
	}
}

func TestHoleBijection(t *testing.T) {
	// Remove several cells, fill holes with a rotation of the same cells;
	// the placement must remain valid.
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(6))
	cells := append([]netlist.CellID(nil), ckt.Movable()[:10]...)
	refs := make([]SlotRef, len(cells))
	for i, id := range cells {
		refs[i] = p.RemoveToHole(id)
	}
	for i, id := range cells {
		p.FillHole(refs[(i+3)%len(refs)], id)
	}
	p.Recompute()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after rotated refill: %v", err)
	}
}

func TestFillHolePanics(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(7))
	id := ckt.Movable()[0]
	other := ckt.Movable()[1]
	ref := p.Slot(other)
	defer func() {
		if recover() == nil {
			t.Fatal("FillHole into occupied slot did not panic")
		}
	}()
	p.FillHole(ref, id) // occupied: must panic
}

func TestSwapCells(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(8))
	a, b := ckt.Movable()[0], ckt.Movable()[1]
	ra, rb := p.Slot(a), p.Slot(b)
	p.SwapCells(a, b)
	if p.Slot(a) != rb || p.Slot(b) != ra {
		t.Fatal("SwapCells did not exchange slots")
	}
	p.Recompute()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
}

func TestWidthCost(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(9))
	maxW := 0
	for r := 0; r < p.NumRows(); r++ {
		sum := 0
		for _, id := range p.Row(r) {
			sum += ckt.Cells[id].Width
		}
		if sum != p.RowWidth(r) {
			t.Fatalf("row %d width %d, want %d", r, p.RowWidth(r), sum)
		}
		if sum > maxW {
			maxW = sum
		}
	}
	if p.MaxRowWidth() != maxW {
		t.Fatalf("MaxRowWidth = %d, want %d", p.MaxRowWidth(), maxW)
	}
	if !p.WidthOK(10) {
		t.Fatal("balanced placement violates a very loose width constraint")
	}
	if p.WidthViolation(10) != 0 {
		t.Fatal("WidthViolation non-zero under loose constraint")
	}
}

func TestWidthViolationDetected(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(10))
	// Pile many cells into row 0 by swapping? Simpler: construct
	// an unbalanced placement manually via holes.
	// Move 30 cells from other rows to the end of row 0 is not supported by
	// the hole API (bijection); instead check the formula directly on an
	// imbalanced fresh placement.
	q := New(ckt, 10)
	for i, id := range ckt.Movable() {
		row := 0
		if i >= len(ckt.Movable())/2 {
			row = 1 + i%9
		}
		q.rows[row] = append(q.rows[row], id)
		q.slotOf[id] = SlotRef{Row: int32(row), Idx: int32(len(q.rows[row]) - 1)}
	}
	q.Recompute()
	if q.WidthOK(0.1) {
		t.Fatalf("half the cells in one row should violate alpha=0.1 (max=%d avg=%.1f)",
			q.MaxRowWidth(), q.AvgRowWidth())
	}
	if q.WidthViolation(0.1) <= 0 {
		t.Fatal("WidthViolation = 0 for an imbalanced placement")
	}
	_ = p
}

func TestCloneIndependent(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(11))
	q := p.Clone()
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	a, b := ckt.Movable()[0], ckt.Movable()[1]
	q.SwapCells(a, b)
	if p.Fingerprint() == q.Fingerprint() {
		t.Fatal("mutating clone affected original (or fingerprint insensitive)")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	ckt := testCircuit(t)
	a := NewRandom(ckt, 10, rng.New(12))
	b := NewRandom(ckt, 10, rng.New(13))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different placements share a fingerprint")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(14))
	data := p.Encode()
	q, err := DecodePlacement(ckt, data)
	if err != nil {
		t.Fatalf("DecodePlacement: %v", err)
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("decode round-trip changed the placement")
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("decoded placement invalid: %v", err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(15))
	data := p.Encode()
	if _, err := DecodePlacement(ckt, data[:len(data)-2]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	bad := append([]byte(nil), data...)
	bad[4] = 0xff // corrupt first row count
	bad[5] = 0xff
	bad[6] = 0xff
	bad[7] = 0x7f
	if _, err := DecodePlacement(ckt, bad); err == nil {
		t.Fatal("corrupt row count accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	ckt := testCircuit(t)
	prop := func(seed uint64) bool {
		p := NewRandom(ckt, 10, rng.New(seed))
		q, err := DecodePlacement(ckt, p.Encode())
		return err == nil && p.Fingerprint() == q.Fingerprint()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultNumRows(t *testing.T) {
	ckt := testCircuit(t)
	rows := DefaultNumRows(ckt)
	if rows < 8 {
		t.Fatalf("DefaultNumRows = %d, want >= 8", rows)
	}
}

// TestSlotDeltasPatchToTarget is the delta-codec core property at the
// layout level: for two random placements differing by a slot permutation,
// applying that permutation's deltas to the first reproduces the second
// exactly — same fingerprint and bitwise-identical physical coordinates.
func TestSlotDeltasPatchToTarget(t *testing.T) {
	ckt := testCircuit(t)
	prop := func(seed uint64) bool {
		base := NewRandom(ckt, 10, rng.New(seed))
		target := base.Clone()
		// Permute a random subset of slots: shuffle cells among their own
		// vacated positions, across rows, as allocation does.
		r := rng.New(seed ^ 0xdecade)
		movable := ckt.Movable()
		k := 2 + int(r.Uint64()%16)
		cells := make([]netlist.CellID, 0, k)
		seen := make(map[netlist.CellID]bool)
		for len(cells) < k {
			id := movable[int(r.Uint64()%uint64(len(movable)))]
			if !seen[id] {
				seen[id] = true
				cells = append(cells, id)
			}
		}
		refs := make([]SlotRef, len(cells))
		for i, id := range cells {
			refs[i] = target.RemoveToHole(id)
		}
		perm := r.Perm(len(cells))
		deltas := make([]SlotDelta, len(cells))
		for i, id := range cells {
			to := refs[perm[i]]
			target.FillHole(to, id)
			deltas[i] = SlotDelta{Cell: id, Row: to.Row, Idx: to.Idx}
		}
		target.Recompute()

		if err := base.ApplySlotDeltas(deltas); err != nil {
			t.Logf("apply: %v", err)
			return false
		}
		base.Recompute()
		if base.Fingerprint() != target.Fingerprint() {
			return false
		}
		if err := base.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for _, id := range movable {
			bx, by := base.Coord(id)
			tx, ty := target.Coord(id)
			if bx != tx || by != ty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApplySlotDeltasRejectsCorrupt asserts malformed batches error out
// instead of corrupting the placement silently.
func TestApplySlotDeltasRejectsCorrupt(t *testing.T) {
	ckt := testCircuit(t)
	mv := ckt.Movable()
	fresh := func() *Placement { return NewRandom(ckt, 10, rng.New(77)) }

	p := fresh()
	if err := p.ApplySlotDeltas([]SlotDelta{{Cell: mv[0], Row: 99, Idx: 0}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	p = fresh()
	if err := p.ApplySlotDeltas([]SlotDelta{{Cell: mv[0], Row: 0, Idx: 1 << 20}}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	p = fresh()
	ref := p.Slot(mv[0])
	dup := []SlotDelta{
		{Cell: mv[0], Row: ref.Row, Idx: ref.Idx},
		{Cell: mv[0], Row: ref.Row, Idx: ref.Idx},
	}
	if err := p.ApplySlotDeltas(dup); err == nil {
		t.Fatal("repeated cell accepted")
	}
	p = fresh()
	other := p.Slot(mv[1])
	if err := p.ApplySlotDeltas([]SlotDelta{{Cell: mv[0], Row: other.Row, Idx: other.Idx}}); err == nil {
		t.Fatal("occupied target accepted")
	}
}

func TestNewClusteredValid(t *testing.T) {
	ckt := testCircuit(t)
	p := NewClustered(ckt, 0, rng.New(1))
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumRows() < 8 {
		t.Fatalf("NumRows = %d, want >= 8 (numRows 0 must default like NewRandom)", p.NumRows())
	}
	// Deterministic for a given rng stream, and genuinely different from
	// the uniform deal — otherwise the clustered start gates nothing.
	if p.Fingerprint() != NewClustered(ckt, 0, rng.New(1)).Fingerprint() {
		t.Fatal("NewClustered is not deterministic for a fixed seed")
	}
	if p.Fingerprint() == NewRandom(ckt, 0, rng.New(1)).Fingerprint() {
		t.Fatal("NewClustered degenerated to the uniform-random deal")
	}
}

func TestNewClusteredPacksConnectedCells(t *testing.T) {
	// The 130-cell testCircuit fits in a single BFS cluster, where the
	// clustered deal degenerates to a connectivity-ordered shuffle; the
	// packing effect only shows once the circuit spans many clusters, so
	// this check runs at a few thousand cells.
	ckt, err := gen.Generate(gen.ScaledParams("layclust", 4000, 1))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	// Summed half-perimeter of every net under each start: the BFS deal
	// places connected cells in adjacent slots, so its total net span must
	// come in well under the uniform shuffle's.
	span := func(p *Placement) float64 {
		total := 0.0
		for n := range ckt.Nets {
			net := &ckt.Nets[n]
			minX, maxX := 0.0, 0.0
			minY, maxY := 0.0, 0.0
			first := true
			visit := func(c netlist.CellID) {
				if c == netlist.NoCell {
					return
				}
				x, y := p.Coord(c)
				if first {
					minX, maxX, minY, maxY = x, x, y, y
					first = false
					return
				}
				if x < minX {
					minX = x
				}
				if x > maxX {
					maxX = x
				}
				if y < minY {
					minY = y
				}
				if y > maxY {
					maxY = y
				}
			}
			visit(net.Driver)
			for _, s := range net.Sinks {
				visit(s)
			}
			if !first {
				total += (maxX - minX) + (maxY - minY)
			}
		}
		return total
	}
	clustered := span(NewClustered(ckt, 0, rng.New(7)))
	uniform := span(NewRandom(ckt, 0, rng.New(7)))
	if clustered >= uniform*0.8 {
		t.Fatalf("clustered start total net span %.0f not well under uniform %.0f", clustered, uniform)
	}
}

// Package layout models standard-cell row placement.
//
// A placement assigns every movable cell of a circuit to a slot in one of a
// fixed number of horizontal rows. Cells have integer widths in "sites"; a
// cell's physical x coordinate is the prefix sum of the widths before it in
// its row, and its y coordinate is its row index times the row pitch. I/O
// pads sit at fixed positions on the left (inputs) and right (outputs) die
// edges.
//
// The SimE allocation operator removes the selected cells, leaving holes,
// and then fills each hole with exactly one selected cell (a bijection
// between selected cells and vacated slots, as in Kling-Banerjee ESP). The
// hole mechanism keeps slot references stable during an iteration; physical
// coordinates are refreshed once per iteration with Recompute. Trial
// placements during allocation therefore score against slightly stale
// coordinates when cell widths differ — exactly the "error in optimum cell
// position determination" the paper acknowledges for its own implementation.
package layout

import (
	"fmt"
	"math"

	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// RowPitch is the vertical distance between adjacent row centerlines, in
// site units.
const RowPitch = 3.0

// SlotRef identifies a slot: a position within a row.
type SlotRef struct {
	Row, Idx int32
}

// NoSlot is the slot reference for unplaced cells (pads).
var NoSlot = SlotRef{Row: -1, Idx: -1}

// Placement is a complete assignment of movable cells to row slots.
type Placement struct {
	ckt     *netlist.Circuit
	numRows int

	rows   [][]netlist.CellID // slot contents; netlist.NoCell marks a hole
	slotOf []SlotRef          // per cell; NoSlot for pads
	x, y   []float64          // physical centers per cell (pads fixed)

	rowWidth []int // summed widths of each row's cells, holes excluded (Recompute)
	estWidth float64
	dirty    bool // true when Recompute is needed
}

// DefaultNumRows picks a row count giving a roughly square die for the
// circuit, with at least 8 rows (the Type II strategy partitions rows over
// up to 5 processors).
func DefaultNumRows(ckt *netlist.Circuit) int {
	total := ckt.TotalWidth()
	rows := int(math.Round(math.Sqrt(float64(total) / RowPitch)))
	if rows < 8 {
		rows = 8
	}
	return rows
}

// New creates an empty placement (no cells placed) with pad coordinates
// fixed on the die boundary.
func New(ckt *netlist.Circuit, numRows int) *Placement {
	if numRows <= 0 {
		numRows = DefaultNumRows(ckt)
	}
	p := &Placement{
		ckt:      ckt,
		numRows:  numRows,
		rows:     make([][]netlist.CellID, numRows),
		slotOf:   make([]SlotRef, len(ckt.Cells)),
		x:        make([]float64, len(ckt.Cells)),
		y:        make([]float64, len(ckt.Cells)),
		rowWidth: make([]int, numRows),
		estWidth: float64(ckt.TotalWidth()) / float64(numRows),
		dirty:    true,
	}
	for i := range p.slotOf {
		p.slotOf[i] = NoSlot
	}
	p.placePads()
	return p
}

// placePads fixes pad coordinates: inputs spread along the left edge,
// outputs along the right edge.
func (p *Placement) placePads() {
	height := float64(p.numRows) * RowPitch
	spread := func(pads []netlist.CellID, x float64) {
		n := len(pads)
		for k, id := range pads {
			p.x[id] = x
			p.y[id] = (float64(k) + 0.5) / float64(n) * height
		}
	}
	spread(p.ckt.PIs, -4.0)
	spread(p.ckt.POs, p.estWidth+4.0)
}

// NewRandom creates a random initial placement: movable cells are shuffled
// and dealt greedily to the currently narrowest row, which balances row
// widths.
func NewRandom(ckt *netlist.Circuit, numRows int, r *rng.R) *Placement {
	p := New(ckt, numRows)
	movable := append([]netlist.CellID(nil), ckt.Movable()...)
	r.Shuffle(len(movable), func(i, j int) { movable[i], movable[j] = movable[j], movable[i] })
	widths := make([]int, p.numRows)
	for _, id := range movable {
		best := 0
		for row := 1; row < p.numRows; row++ {
			if widths[row] < widths[best] {
				best = row
			}
		}
		p.rows[best] = append(p.rows[best], id)
		p.slotOf[id] = SlotRef{Row: int32(best), Idx: int32(len(p.rows[best]) - 1)}
		widths[best] += ckt.Cells[id].Width
	}
	p.dirty = true
	p.Recompute()
	return p
}

// NewClustered creates a clustered (non-uniform) initial placement: cells
// are ordered by a breadth-first traversal of the netlist connectivity
// graph from shuffled seeds and dealt row-major, filling each row to the
// balanced width before moving to the next. Connected cells land in
// adjacent slots, so net bounding boxes start small and heavily
// overlapping — routing demand concentrates into hotspots instead of the
// near-uniform spread the random deal produces. This is the start the
// large-tier congestion gate needs: a uniform-random 100k-cell start has
// essentially zero bin overflow, so a congestion objective has nothing to
// discriminate on.
func NewClustered(ckt *netlist.Circuit, numRows int, r *rng.R) *Placement {
	p := New(ckt, numRows)
	movable := append([]netlist.CellID(nil), ckt.Movable()...)
	r.Shuffle(len(movable), func(i, j int) { movable[i], movable[j] = movable[j], movable[i] })

	isMovable := make([]bool, len(ckt.Cells))
	for _, id := range movable {
		isMovable[id] = true
	}
	// BFS over net incidence: a visited cell pulls every unvisited movable
	// cell sharing a net with it into the same cluster. The shuffled seed
	// order (and the deterministic net/pin order below) makes the traversal
	// reproducible for a given rng stream.
	// Cells enter order as they are discovered, so order[head:] is the
	// FIFO queue of the current traversal.
	order := make([]netlist.CellID, 0, len(movable))
	visited := make([]bool, len(ckt.Cells))
	var nets []netlist.NetID
	for _, seed := range movable {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		head := len(order)
		order = append(order, seed)
		for ; head < len(order); head++ {
			id := order[head]
			nets = ckt.CellNets(id, nets[:0])
			for _, n := range nets {
				net := &ckt.Nets[n]
				visit := func(c netlist.CellID) {
					if c != netlist.NoCell && isMovable[c] && !visited[c] {
						visited[c] = true
						order = append(order, c)
					}
				}
				visit(net.Driver)
				for _, s := range net.Sinks {
					visit(s)
				}
			}
		}
	}

	// Deal the traversal order row-major against the balanced row width, so
	// each BFS cluster occupies a contiguous band of adjacent slots (and
	// adjacent rows, for clusters wider than a row).
	target := (ckt.TotalWidth() + p.numRows - 1) / p.numRows
	row, width := 0, 0
	for _, id := range order {
		if width >= target && row < p.numRows-1 {
			row++
			width = 0
		}
		p.rows[row] = append(p.rows[row], id)
		p.slotOf[id] = SlotRef{Row: int32(row), Idx: int32(len(p.rows[row]) - 1)}
		width += ckt.Cells[id].Width
	}
	p.dirty = true
	p.Recompute()
	return p
}

// Circuit returns the circuit being placed.
func (p *Placement) Circuit() *netlist.Circuit { return p.ckt }

// NumRows returns the number of placement rows.
func (p *Placement) NumRows() int { return p.numRows }

// Row returns the slot contents of row r. The returned slice must not be
// modified.
func (p *Placement) Row(r int) []netlist.CellID { return p.rows[r] }

// Slot returns the slot currently holding the cell.
func (p *Placement) Slot(id netlist.CellID) SlotRef { return p.slotOf[id] }

// Recompute refreshes physical coordinates and row widths from the slot
// assignment. Holes occupy no width.
func (p *Placement) Recompute() {
	for row := 0; row < p.numRows; row++ {
		xoff := 0
		y := RowY(row) // the single source of the centerline expression
		for _, id := range p.rows[row] {
			if id == netlist.NoCell {
				continue
			}
			w := p.ckt.Cells[id].Width
			p.x[id] = float64(xoff) + float64(w)/2
			p.y[id] = y
			xoff += w
		}
		p.rowWidth[row] = xoff
	}
	p.dirty = false
}

// X returns the physical x coordinate (site units) of the cell's center.
// Valid only after Recompute (unless the cell is a pad).
func (p *Placement) X(id netlist.CellID) float64 { return p.x[id] }

// Y returns the physical y coordinate of the cell's center.
func (p *Placement) Y(id netlist.CellID) float64 { return p.y[id] }

// Coord returns the cell's physical center.
func (p *Placement) Coord(id netlist.CellID) (x, y float64) { return p.x[id], p.y[id] }

// RowY returns the physical y coordinate of a row's centerline.
func RowY(row int) float64 { return (float64(row) + 0.5) * RowPitch }

// SetCoordHint overrides a cell's cached coordinates until the next
// Recompute. The allocation operator uses it so that cells already placed
// this iteration are scored at their new (approximate) location rather than
// their stale one.
func (p *Placement) SetCoordHint(id netlist.CellID, x, y float64) {
	p.x[id], p.y[id] = x, y
}

// AppendToRow places a not-yet-placed cell at the end of a row (used when
// constructing placements from external encodings such as GA genomes).
func (p *Placement) AppendToRow(row int, id netlist.CellID) {
	if p.slotOf[id] != NoSlot {
		panic(fmt.Sprintf("layout: AppendToRow with already-placed cell %d", id))
	}
	p.rows[row] = append(p.rows[row], id)
	p.slotOf[id] = SlotRef{Row: int32(row), Idx: int32(len(p.rows[row]) - 1)}
	p.dirty = true
}

// RemoveToHole removes the cell from its slot, leaving a hole, and returns
// the vacated slot reference.
func (p *Placement) RemoveToHole(id netlist.CellID) SlotRef {
	ref := p.slotOf[id]
	if ref == NoSlot {
		panic(fmt.Sprintf("layout: RemoveToHole on unplaced cell %d", id))
	}
	p.rows[ref.Row][ref.Idx] = netlist.NoCell
	p.slotOf[id] = NoSlot
	p.dirty = true
	return ref
}

// FillHole places the cell into a hole created by RemoveToHole.
func (p *Placement) FillHole(ref SlotRef, id netlist.CellID) {
	if p.rows[ref.Row][ref.Idx] != netlist.NoCell {
		panic(fmt.Sprintf("layout: FillHole target %v is occupied", ref))
	}
	if p.slotOf[id] != NoSlot {
		panic(fmt.Sprintf("layout: FillHole with already-placed cell %d", id))
	}
	p.rows[ref.Row][ref.Idx] = id
	p.slotOf[id] = ref
	p.dirty = true
}

// SlotDelta relocates one cell to a new slot. A batch of deltas describes
// a permutation: the vacated slots of the listed cells are exactly the
// target slots, which is what the SimE allocation operator produces (a
// bijection between selected cells and vacated slots) and what one Type II
// round's moves amount to. Entries whose cell already sits in the target
// slot are allowed and are no-ops.
type SlotDelta struct {
	Cell netlist.CellID
	Row  int32
	Idx  int32
}

// ApplySlotDeltas relocates the listed cells: all are lifted out of their
// current slots first, then placed into their target slots. The batch must
// be a permutation (see SlotDelta) — every target must be one of the
// vacated slots — otherwise an error is returned and the placement may be
// left with holes. The caller must Recompute before reading coordinates.
func (p *Placement) ApplySlotDeltas(ds []SlotDelta) error {
	for _, d := range ds {
		if int(d.Row) < 0 || int(d.Row) >= p.numRows {
			return fmt.Errorf("layout: delta row %d out of range", d.Row)
		}
		if int(d.Idx) < 0 || int(d.Idx) >= len(p.rows[d.Row]) {
			return fmt.Errorf("layout: delta slot %d:%d out of range", d.Row, d.Idx)
		}
		ref := p.slotOf[d.Cell]
		if ref == NoSlot {
			return fmt.Errorf("layout: delta moves unplaced (or repeated) cell %d", d.Cell)
		}
		p.rows[ref.Row][ref.Idx] = netlist.NoCell
		p.slotOf[d.Cell] = NoSlot
	}
	for _, d := range ds {
		if p.rows[d.Row][d.Idx] != netlist.NoCell {
			return fmt.Errorf("layout: delta target %d:%d is occupied", d.Row, d.Idx)
		}
		p.rows[d.Row][d.Idx] = d.Cell
		p.slotOf[d.Cell] = SlotRef{Row: d.Row, Idx: d.Idx}
	}
	if len(ds) > 0 {
		p.dirty = true
	}
	return nil
}

// SwapCells exchanges the slots of two placed cells.
func (p *Placement) SwapCells(a, b netlist.CellID) {
	ra, rb := p.slotOf[a], p.slotOf[b]
	if ra == NoSlot || rb == NoSlot {
		panic("layout: SwapCells with unplaced cell")
	}
	p.rows[ra.Row][ra.Idx], p.rows[rb.Row][rb.Idx] = b, a
	p.slotOf[a], p.slotOf[b] = rb, ra
	p.dirty = true
}

// Dirty reports whether coordinates are stale (Recompute needed).
func (p *Placement) Dirty() bool { return p.dirty }

// MaxRowWidth returns the widest row's width (the paper's layout width
// cost). Valid after Recompute.
func (p *Placement) MaxRowWidth() int {
	max := 0
	for _, w := range p.rowWidth {
		if w > max {
			max = w
		}
	}
	return max
}

// AvgRowWidth returns total cell width / number of rows — the paper's
// w_avg, the minimum possible layout width.
func (p *Placement) AvgRowWidth() float64 { return p.estWidth }

// WidthOK reports whether the paper's width constraint
// Width - w_avg <= alpha * w_avg holds.
func (p *Placement) WidthOK(alpha float64) bool {
	return float64(p.MaxRowWidth())-p.estWidth <= alpha*p.estWidth
}

// WidthViolation returns how far the layout exceeds the constraint, as a
// fraction of w_avg (0 when satisfied).
func (p *Placement) WidthViolation(alpha float64) float64 {
	excess := float64(p.MaxRowWidth()) - (1+alpha)*p.estWidth
	if excess <= 0 {
		return 0
	}
	return excess / p.estWidth
}

// RowWidth returns the current width of one row. Valid after Recompute.
func (p *Placement) RowWidth(row int) int { return p.rowWidth[row] }

// Clone returns a deep copy sharing only the (immutable) circuit.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		ckt:      p.ckt,
		numRows:  p.numRows,
		rows:     make([][]netlist.CellID, p.numRows),
		slotOf:   append([]SlotRef(nil), p.slotOf...),
		x:        append([]float64(nil), p.x...),
		y:        append([]float64(nil), p.y...),
		rowWidth: append([]int(nil), p.rowWidth...),
		estWidth: p.estWidth,
		dirty:    p.dirty,
	}
	for r := range p.rows {
		q.rows[r] = append([]netlist.CellID(nil), p.rows[r]...)
	}
	return q
}

// Fingerprint hashes the slot assignment (FNV-1a over row contents). Two
// placements of the same circuit have equal fingerprints iff every row has
// identical slot contents — used to verify the Type I trajectory-equivalence
// invariant.
func (p *Placement) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for r := range p.rows {
		mix(uint64(len(p.rows[r])) | 0xabcd0000)
		for _, id := range p.rows[r] {
			mix(uint64(uint32(id)))
		}
	}
	return h
}

// Validate checks the placement invariants: every movable cell is placed in
// exactly one slot, slot back-references agree, and no holes remain. It
// does not allocate unless it fails.
func (p *Placement) Validate() error {
	for r := range p.rows {
		for i, id := range p.rows[r] {
			ref := SlotRef{Row: int32(r), Idx: int32(i)}
			if id == netlist.NoCell {
				return fmt.Errorf("layout: hole remains at %v", ref)
			}
			if back := p.slotOf[id]; back != ref {
				if p.holds(back, id) {
					return fmt.Errorf("layout: cell %d placed at both %v and %v", id, back, ref)
				}
				return fmt.Errorf("layout: cell %d slot back-reference %v != %v", id, back, ref)
			}
			if p.ckt.Cells[id].IsPad() {
				return fmt.Errorf("layout: pad %d placed in a row", id)
			}
		}
	}
	// Every placed cell's back-reference names its own slot, so no cell is
	// placed twice, and a cell is placed exactly when its back-reference
	// holds it.
	for _, id := range p.ckt.Movable() {
		if !p.holds(p.slotOf[id], id) {
			return fmt.Errorf("layout: movable cell %d is unplaced", id)
		}
	}
	return nil
}

// holds reports whether ref is a slot of p that holds cell id.
func (p *Placement) holds(ref SlotRef, id netlist.CellID) bool {
	return ref.Row >= 0 && int(ref.Row) < len(p.rows) &&
		ref.Idx >= 0 && int(ref.Idx) < len(p.rows[ref.Row]) &&
		p.rows[ref.Row][ref.Idx] == id
}

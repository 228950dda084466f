package wire

import (
	"fmt"

	"simevo/internal/netlist"
)

// Incremental is a net-cost engine that maintains cached per-net geometry
// — a coordinate mirror per cell plus sorted pin-coordinate multisets (and,
// for the Steiner estimator, prefix sums for the trunk/median math) per net
// — so that:
//
//   - a trial placement of one cell is scored in O(log p) per net through a
//     View (TrialNetAt / TrialNetAt2) instead of re-collecting and
//     re-sorting every pin;
//   - after a batch of cell moves, only the nets incident to the moved
//     cells ("dirty" nets) are re-estimated (Sync + Lengths), instead of
//     recomputing every net from scratch.
//
// Committed net lengths are always produced by the embedded from-scratch
// Evaluator collecting pins in pin order from the mirror, so they are
// bitwise identical to Evaluator.Lengths over the same coordinates — the
// serial, Type I, and Type II trajectory invariants depend on this. Trial
// values go through the canonical formulas in trial.go, shared with
// Evaluator.NetLengthWithCellAt, and are likewise bitwise reproducible.
//
// An Incremental is not safe for concurrent mutation. Concurrent *reads*
// are safe through per-goroutine Views (View), which the parallel
// allocation scanner and the parallel goodness evaluator exploit: every
// mutation finishes before a scan starts, and Views carry their own
// scratch for the RMST estimator.
//
// Storage is one flat array: each net owns a contiguous block holding its
// sorted x values, sorted y values, and (Steiner only) their prefix sums,
// carved out at construction. The multisets hold values only — nothing
// reads which cell a sorted entry belongs to, so pins are inserted and
// removed by value. The per-net netGeom fields are capacity-capped slice
// headers aliasing the block, so the insert/remove-by-memmove mutation
// paths can never spill into a neighboring net's block (a net's pin count
// never exceeds its degree) and never allocate. Walking nets in id order —
// the dirty-net re-estimation, the goodness formulas, trial compilation —
// therefore walks contiguous memory.
type Incremental struct {
	ckt *netlist.Circuit
	est Estimator

	cx, cy []float64 // per-cell coordinate mirror
	geoms  []netGeom // per-net sorted pin geometry (headers into flat)

	// Backing for the per-net geometry: net n's block is xv|yv (deg(n)
	// each), followed by xp|yp (deg(n)+1 each) when the estimator needs
	// prefix sums.
	flat []float64

	// Flat cell-net incidence: cell id's distinct incident nets (with pin
	// multiplicities) are pinRefs[pinOff[id]:pinOff[id+1]], in CellNets
	// order.
	pinRefs []PinRef
	pinOff  []int32

	lengths  []float64        // committed per-net lengths
	dirty    []netlist.NetID  // nets whose cached length is stale
	isDirty  []bool           // per net
	geoStale []netlist.NetID  // Sync scratch: nets to refill from the mirror
	geoMark  []bool           // per net: already on geoStale
	removed  []netlist.CellID // cells lifted out for trial scanning
	oldX     []float64        // coords of removed cells, parallel to removed
	oldY     []float64
	base     View             // serial-use view
	drainBuf []netlist.CellID // scratch for Sync
	built    bool             // Rebuild has run at least once
}

// netGeom holds one net's cached geometry: pin coordinates sorted per axis,
// plus prefix sums for the Steiner branch math (len = len(values)+1; unused
// for HPWL/RMST). The slices are capacity-capped windows into the net's
// block of the Incremental's flat backing array.
type netGeom struct {
	xv, yv []float64
	xp, yp []float64
}

// PinRef is one edge of the cell-net incidence: net plus the number of
// pins the cell has on it (a cell can sink the same net more than once).
type PinRef struct {
	Net netlist.NetID
	K   int32
}

// ChangeSource is the placement-side contract for Sync: coordinates plus a
// drainable journal of cells whose coordinates changed since the last
// drain. *layout.Placement satisfies it once coordinate journaling is
// enabled.
type ChangeSource interface {
	Coords
	DrainChangedCells(dst []netlist.CellID) []netlist.CellID
}

// NewIncremental returns an incremental evaluator for one circuit. Rebuild
// must run before any other use.
func NewIncremental(ckt *netlist.Circuit, est Estimator) *Incremental {
	inc := &Incremental{
		ckt:     ckt,
		est:     est,
		cx:      make([]float64, len(ckt.Cells)),
		cy:      make([]float64, len(ckt.Cells)),
		geoms:   make([]netGeom, ckt.NumNets()),
		lengths: make([]float64, ckt.NumNets()),
		isDirty: make([]bool, ckt.NumNets()),
		geoMark: make([]bool, ckt.NumNets()),
	}
	inc.base = View{inc: inc, ev: NewEvaluator(ckt, est)}
	inc.buildPins()
	inc.buildFlat()
	return inc
}

// buildPins precomputes the cell-net incidence with pin multiplicities so
// the mutation paths touch each incident net in O(1) instead of rescanning
// the net's sink list. The incidence is itself flat: one contiguous PinRef
// array with per-cell offsets.
func (inc *Incremental) buildPins() {
	ckt := inc.ckt
	inc.pinOff = make([]int32, len(ckt.Cells)+1)
	// A cell's distinct nets are at most its output plus its input pins.
	refs := 0
	for id := range ckt.Cells {
		if ckt.Cells[id].Out != netlist.NoNet {
			refs++
		}
		refs += len(ckt.Cells[id].In)
	}
	inc.pinRefs = make([]PinRef, 0, refs)
	var nets []netlist.NetID
	for id := range ckt.Cells {
		nets = ckt.CellNets(netlist.CellID(id), nets[:0])
		for _, n := range nets {
			net := ckt.Net(n)
			k := int32(0)
			if net.Driver == netlist.CellID(id) {
				k++
			}
			for _, s := range net.Sinks {
				if s == netlist.CellID(id) {
					k++
				}
			}
			inc.pinRefs = append(inc.pinRefs, PinRef{Net: n, K: k})
		}
		inc.pinOff[id+1] = int32(len(inc.pinRefs))
	}
}

// buildFlat allocates the flat backing array and points every net's
// geometry headers at its block. Each window is sized to the net's full
// degree and capacity-capped, so the in-place mutation paths can neither
// reallocate nor cross into a neighbor.
func (inc *Incremental) buildFlat() {
	block := func(deg int) int {
		if inc.needPrefix() {
			return 4*deg + 2
		}
		return 2 * deg
	}
	total := 0
	for n := range inc.geoms {
		total += block(inc.netDegree(netlist.NetID(n)))
	}
	inc.flat = make([]float64, total)
	off := 0
	for n := range inc.geoms {
		deg := inc.netDegree(netlist.NetID(n))
		g := &inc.geoms[n]
		b := inc.flat[off : off+block(deg)]
		g.xv = b[:deg:deg]
		g.yv = b[deg : 2*deg : 2*deg]
		if inc.needPrefix() {
			g.xp = b[2*deg : 2*deg : 3*deg+1]
			g.yp = b[3*deg+1 : 3*deg+1 : 4*deg+2]
		}
		off += len(b)
	}
}

// netDegree returns the net's total pin count (driver + sinks).
func (inc *Incremental) netDegree(n netlist.NetID) int {
	net := inc.ckt.Net(n)
	deg := len(net.Sinks)
	if net.Driver != netlist.NoCell {
		deg++
	}
	return deg
}

// CellPins returns the cell's distinct incident nets with pin
// multiplicities, in the canonical CellNets order. The returned slice
// aliases the flat incidence array; callers must not mutate it.
func (inc *Incremental) CellPins(id netlist.CellID) []PinRef {
	return inc.pinRefs[inc.pinOff[id]:inc.pinOff[id+1]]
}

// Estimator returns the configured estimator.
func (inc *Incremental) Estimator() Estimator { return inc.est }

// Coord returns the mirrored coordinates of a cell, satisfying Coords so
// the embedded Evaluator (and callers) can read the mirror directly.
func (inc *Incremental) Coord(id netlist.CellID) (x, y float64) {
	return inc.cx[id], inc.cy[id]
}

// NetBBox returns the bounding box of a net's pins from the cached sorted
// multisets in O(1). ok is false for a degenerate net with no pins or
// while some of its pins are lifted out by RemoveCell. The box is exact
// for the committed coordinates of the last Sync/Rebuild, which makes it
// the congestion grid's geometry source: identical coordinates on the
// reference path yield the identical box.
func (inc *Incremental) NetBBox(n netlist.NetID) (minX, minY, maxX, maxY float64, ok bool) {
	g := &inc.geoms[n]
	if len(g.xv) == 0 || inc.netDegree(n) != len(g.xv) {
		return 0, 0, 0, 0, false
	}
	return g.xv[0], g.yv[0], g.xv[len(g.xv)-1], g.yv[len(g.yv)-1], true
}

// needPrefix reports whether the estimator uses the prefix-sum branch math.
func (inc *Incremental) needPrefix() bool { return inc.est == Steiner }

// Rebuild resynchronizes the full state — mirror, multisets, and committed
// lengths — from the given coordinates. It doubles as the periodic
// full-recompute checksum: rebuilding from a consistent state reproduces
// the cached values bit for bit.
func (inc *Incremental) Rebuild(coords Coords) {
	if len(inc.removed) != 0 {
		panic("wire: Rebuild with removed cells outstanding")
	}
	for i := range inc.cx {
		inc.cx[i], inc.cy[i] = coords.Coord(netlist.CellID(i))
	}
	for n := range inc.geoms {
		inc.rebuildNet(netlist.NetID(n))
		inc.isDirty[n] = false
		inc.lengths[n] = inc.estimate(netlist.NetID(n))
	}
	inc.dirty = inc.dirty[:0]
	inc.built = true
}

// rebuildNet refills one net's sorted geometry from the mirror.
func (inc *Incremental) rebuildNet(n netlist.NetID) {
	g := &inc.geoms[n]
	net := inc.ckt.Net(n)
	deg := 0
	if net.Driver != netlist.NoCell {
		deg++
	}
	deg += len(net.Sinks)

	g.xv = resizeFloats(g.xv, deg)
	g.yv = resizeFloats(g.yv, deg)
	i := 0
	fill := func(id netlist.CellID) {
		g.xv[i], g.yv[i] = inc.cx[id], inc.cy[id]
		i++
	}
	if net.Driver != netlist.NoCell {
		fill(net.Driver)
	}
	for _, s := range net.Sinks {
		fill(s)
	}
	sortFloats(g.xv)
	sortFloats(g.yv)
	inc.refreshPrefix(g, 0, 0)
}

// refreshPrefix brings both prefix-sum arrays up to date after edits that
// left xv[:xLo] and yv[:yLo] in place. Entries up to those indices are
// unchanged, and the accumulation resumes from the stored partial sum, so
// the bits equal a fresh left-to-right prefixInto — the canonical form
// every evaluator produces, independent of edit history.
func (inc *Incremental) refreshPrefix(g *netGeom, xLo, yLo int) {
	if !inc.needPrefix() {
		return
	}
	g.xp = prefixFrom(g.xp, g.xv, xLo)
	g.yp = prefixFrom(g.yp, g.yv, yLo)
}

// prefixFrom recomputes p[lo+1:] as the running sums of v, resuming from
// p[lo]; p[:lo+1] must already hold the prefix sums of v[:lo]. p[0] is
// never written, so it keeps the 0 of the zeroed backing array.
func prefixFrom(p, v []float64, lo int) []float64 {
	p = p[:len(v)+1]
	sum := p[lo]
	for j := lo; j < len(v); j++ {
		sum += v[j]
		p[j+1] = sum
	}
	return p
}

func prefixInto(dst, v []float64) []float64 {
	dst = resizeFloats(dst, len(v)+1)
	sum := 0.0
	dst[0] = 0
	for i, x := range v {
		sum += x
		dst[i+1] = sum
	}
	return dst
}

// MoveCell updates the mirror and every incident net's geometry for a cell
// now at (x, y), marking those nets dirty. Removal is a binary search into
// each sorted axis plus a memmove; no-op when the coordinates are
// unchanged.
func (inc *Incremental) MoveCell(id netlist.CellID, x, y float64) {
	if inc.cx[id] == x && inc.cy[id] == y {
		return
	}
	oldX, oldY := inc.cx[id], inc.cy[id]
	inc.cx[id], inc.cy[id] = x, y
	inc.eachNet(id, func(n netlist.NetID, g *netGeom, k int) {
		xLo, yLo := len(g.xv), len(g.yv)
		for i := 0; i < k; i++ {
			xLo = min(xLo, removePin(&g.xv, oldX), insertPin(&g.xv, x))
			yLo = min(yLo, removePin(&g.yv, oldY), insertPin(&g.yv, y))
		}
		inc.refreshPrefix(g, xLo, yLo)
		inc.markDirty(n)
	})
}

// RemoveCell lifts a cell's pins out of its nets' multisets so that trial
// scoring needs no exclusion logic: a View trial is then simply "stored
// pins plus candidate point(s)". The mirror keeps the old coordinates until
// PlaceCell re-inserts the cell. Committed lengths must not be read while
// cells are removed.
func (inc *Incremental) RemoveCell(id netlist.CellID) {
	inc.removed = append(inc.removed, id)
	inc.oldX = append(inc.oldX, inc.cx[id])
	inc.oldY = append(inc.oldY, inc.cy[id])
	x, y := inc.cx[id], inc.cy[id]
	inc.eachNet(id, func(n netlist.NetID, g *netGeom, k int) {
		xLo, yLo := len(g.xv), len(g.yv)
		for i := 0; i < k; i++ {
			xLo = min(xLo, removePin(&g.xv, x))
			yLo = min(yLo, removePin(&g.yv, y))
		}
		inc.refreshPrefix(g, xLo, yLo)
	})
}

// PlaceCell re-inserts a removed cell at (x, y). Incident nets are marked
// dirty only if the coordinates actually changed, so a remove/restore pair
// (trial scanning that keeps the old spot) leaves the cached lengths valid.
func (inc *Incremental) PlaceCell(id netlist.CellID, x, y float64) {
	idx := -1
	for i, r := range inc.removed {
		if r == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("wire: PlaceCell(%d) without RemoveCell", id))
	}
	moved := inc.oldX[idx] != x || inc.oldY[idx] != y
	last := len(inc.removed) - 1
	inc.removed[idx] = inc.removed[last]
	inc.oldX[idx], inc.oldY[idx] = inc.oldX[last], inc.oldY[last]
	inc.removed = inc.removed[:last]
	inc.oldX, inc.oldY = inc.oldX[:last], inc.oldY[:last]

	inc.cx[id], inc.cy[id] = x, y
	inc.eachNet(id, func(n netlist.NetID, g *netGeom, k int) {
		xLo, yLo := len(g.xv), len(g.yv)
		for i := 0; i < k; i++ {
			xLo = min(xLo, insertPin(&g.xv, x))
			yLo = min(yLo, insertPin(&g.yv, y))
		}
		inc.refreshPrefix(g, xLo, yLo)
		if moved {
			inc.markDirty(n)
		}
	})
}

// RestoreCell re-inserts a removed cell at its pre-removal coordinates.
func (inc *Incremental) RestoreCell(id netlist.CellID) {
	for i, r := range inc.removed {
		if r == id {
			inc.PlaceCell(id, inc.oldX[i], inc.oldY[i])
			return
		}
	}
	panic(fmt.Sprintf("wire: RestoreCell(%d) without RemoveCell", id))
}

// Sync drains the source's coordinate-change journal and applies the moves,
// marking only the touched nets dirty. The source must be the same
// placement the state was last rebuilt from.
//
// Unlike MoveCell — which edits each net's sorted arrays one pin at a time
// and pays two binary searches, two memmoves, and a prefix refresh per pin
// — Sync batches: it updates the whole mirror first, then refills each
// touched net's geometry once from the mirror. A journal drain typically
// moves a large fraction of the cells (every allocated cell plus the row
// repacking behind it), so most touched nets have several moved pins and
// the single refill is cheaper than the per-pin edits. The refilled arrays
// hold the same sorted value multisets the per-pin edits would produce, so
// every downstream value is bit-identical.
func (inc *Incremental) Sync(src ChangeSource) {
	if len(inc.removed) != 0 {
		panic("wire: Sync with removed cells outstanding")
	}
	inc.drainBuf = src.DrainChangedCells(inc.drainBuf[:0])
	for _, id := range inc.drainBuf {
		x, y := src.Coord(id)
		if inc.cx[id] == x && inc.cy[id] == y {
			continue
		}
		inc.cx[id], inc.cy[id] = x, y
		for _, ref := range inc.CellPins(id) {
			inc.markDirty(ref.Net)
			if !inc.geoMark[ref.Net] {
				inc.geoMark[ref.Net] = true
				inc.geoStale = append(inc.geoStale, ref.Net)
			}
		}
	}
	for _, n := range inc.geoStale {
		inc.geoMark[n] = false
		inc.rebuildNet(n)
	}
	inc.geoStale = inc.geoStale[:0]
}

// Lengths re-estimates the dirty nets (pin-order collection through the
// embedded Evaluator, bitwise identical to a from-scratch pass) and returns
// all committed per-net lengths in dst (allocated if too small).
func (inc *Incremental) Lengths(dst []float64) []float64 {
	inc.flush()
	dst = resizeFloats(dst, len(inc.lengths))
	copy(dst, inc.lengths)
	return dst
}

// NetLength returns one net's committed length, re-estimating it first if
// the net is dirty.
func (inc *Incremental) NetLength(n netlist.NetID) float64 {
	if inc.isDirty[n] {
		if len(inc.removed) != 0 {
			panic("wire: NetLength with removed cells outstanding")
		}
		inc.lengths[n] = inc.estimate(n)
		inc.isDirty[n] = false
	}
	return inc.lengths[n]
}

// estimate re-derives one net's committed length, bitwise identical to the
// from-scratch Evaluator over the same coordinates. Nets whose estimate
// degenerates to the bounding box (HPWL, or Steiner with <= 3 pins — the
// bulk of a netlist) read the extremes straight from the sorted multisets:
// min and max are order-independent, so the value equals the pin-order
// hpwl() bit for bit without collecting a single pin. Everything else goes
// through the embedded Evaluator's canonical pin-order path.
func (inc *Incremental) estimate(n netlist.NetID) float64 {
	return inc.estimateWith(inc.base.ev, n)
}

// estimateWith is estimate through a caller-supplied evaluator scratch, so
// concurrent flush chunks (FlushChunk) can re-estimate disjoint net ranges
// without sharing the base evaluator. The value is independent of which
// evaluator computes it: the bbox fast path reads only the sorted
// multisets, and NetLength collects pins in pin order from the mirror.
func (inc *Incremental) estimateWith(ev *Evaluator, n netlist.NetID) float64 {
	g := &inc.geoms[n]
	deg := len(g.xv)
	if deg < 2 {
		return 0
	}
	if inc.est == HPWL || (inc.est == Steiner && deg <= 3) {
		return (g.xv[deg-1] - g.xv[0]) + (g.yv[deg-1] - g.yv[0])
	}
	return ev.NetLength(n, inc)
}

// Built reports whether Rebuild has initialized the state.
func (inc *Incremental) Built() bool { return inc.built }

// DirtySnapshot copies the current dirty-net list — the nets touched by
// mutations since the last re-estimation — into dst (reused if roomy).
// The copy survives the flush that Lengths performs, which is what a
// dirty-net cost fold needs: it captures the list before reading the
// refreshed lengths, then folds exactly those nets in.
func (inc *Incremental) DirtySnapshot(dst []netlist.NetID) []netlist.NetID {
	return append(dst[:0], inc.dirty...)
}

// StoredSpan returns the half-perimeter of the net's stored pins (0 when
// all pins are removed) — the scan-ordering key for compiled trials.
func (inc *Incremental) StoredSpan(n netlist.NetID) float64 {
	g := &inc.geoms[n]
	if len(g.xv) == 0 {
		return 0
	}
	return (g.xv[len(g.xv)-1] - g.xv[0]) + (g.yv[len(g.yv)-1] - g.yv[0])
}

func (inc *Incremental) flush() {
	if len(inc.dirty) == 0 {
		return
	}
	if len(inc.removed) != 0 {
		panic("wire: Lengths with removed cells outstanding")
	}
	for _, n := range inc.dirty {
		if inc.isDirty[n] {
			inc.lengths[n] = inc.estimate(n)
			inc.isDirty[n] = false
		}
	}
	inc.dirty = inc.dirty[:0]
}

// DirtyLen returns the current dirty-net count — the fan-out domain for a
// chunked parallel flush.
func (inc *Incremental) DirtyLen() int { return len(inc.dirty) }

// FlushChunk re-estimates dirty nets [lo, hi) of the dirty list through
// the given view's evaluator scratch, writing the committed lengths but
// leaving the dirty flags set. Chunks over disjoint ranges may run
// concurrently (each net's estimate reads shared immutable state and
// writes only its own length slot); a serial FinishFlush completes the
// flush. Per-net estimates are order-independent and bitwise identical to
// the serial flush's, so a chunked flush followed by FinishFlush is
// indistinguishable from Lengths' built-in flush.
func (inc *Incremental) FlushChunk(v *View, lo, hi int) {
	if len(inc.removed) != 0 {
		panic("wire: FlushChunk with removed cells outstanding")
	}
	for _, n := range inc.dirty[lo:hi] {
		if inc.isDirty[n] {
			inc.lengths[n] = inc.estimateWith(v.ev, n)
		}
	}
}

// FinishFlush clears the dirty flags and list after every FlushChunk of a
// chunked parallel flush completed.
func (inc *Incremental) FinishFlush() {
	for _, n := range inc.dirty {
		inc.isDirty[n] = false
	}
	inc.dirty = inc.dirty[:0]
}

func (inc *Incremental) markDirty(n netlist.NetID) {
	if !inc.isDirty[n] {
		inc.isDirty[n] = true
		inc.dirty = append(inc.dirty, n)
	}
}

// eachNet invokes fn for every distinct net incident to the cell with the
// cell's pin multiplicity k on that net.
func (inc *Incremental) eachNet(id netlist.CellID, fn func(n netlist.NetID, g *netGeom, k int)) {
	for _, ref := range inc.CellPins(id) {
		fn(ref.Net, &inc.geoms[ref.Net], int(ref.K))
	}
}

// insertPin inserts v keeping values ascending and returns its index.
func insertPin(vals *[]float64, v float64) int {
	vs := *vals
	i := searchF64(vs, v)
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	*vals = vs
	return i
}

// removePin removes one entry of value v and returns the index it held.
// The value must be present.
func removePin(vals *[]float64, v float64) int {
	vs := *vals
	i := searchF64(vs, v)
	if i == len(vs) || vs[i] != v {
		panic(fmt.Sprintf("wire: pin coordinate %v not found for removal", v))
	}
	*vals = append(vs[:i], vs[i+1:]...)
	return i
}

// sortFloats sorts v ascending (insertion sort: net degrees are small and
// this runs only on a net refill).
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// View is a read-only trial scorer over an Incremental's cached state with
// its own scratch buffers, so multiple goroutines can score trials
// concurrently (one View each) while no mutation is in flight.
type View struct {
	inc *Incremental
	ev  *Evaluator // scratch for RMST trials and candidate staging
}

// View returns a new independent view.
func (inc *Incremental) View() *View {
	return &View{inc: inc, ev: NewEvaluator(inc.ckt, inc.est)}
}

// BaseView returns the evaluator-owned view for single-goroutine use.
func (inc *Incremental) BaseView() *View { return &inc.base }

// TrialNetAt estimates the net's length with the stored pins plus one
// candidate point — O(log p) for HPWL/Steiner. The cell being trialled must
// have been lifted out with RemoveCell beforehand.
func (v *View) TrialNetAt(n netlist.NetID, x, y float64) float64 {
	g := &v.inc.geoms[n]
	switch v.inc.est {
	case HPWL:
		if len(g.xv) == 0 {
			return 0
		}
		return bboxPlus1(g.xv[0], g.xv[len(g.xv)-1], g.yv[0], g.yv[len(g.yv)-1], x, y)
	case Steiner:
		stored := len(g.xv)
		if stored == 0 {
			return 0
		}
		if stored <= 2 {
			return bboxPlus1(g.xv[0], g.xv[stored-1], g.yv[0], g.yv[stored-1], x, y)
		}
		return steinerTrial1(g.xv, g.xp, g.yv, g.yp, x, y)
	case RMST:
		v.collectRemaining(n)
		v.ev.xs = append(v.ev.xs, x)
		v.ev.ys = append(v.ev.ys, y)
		return v.ev.rmstLength()
	}
	panic("wire: unknown estimator")
}

// TrialNetAt2 estimates the net's length with two candidate points (the
// pairwise-swap trial). Both trialled cells must have been lifted out with
// RemoveCell beforehand. Candidate order matches
// Evaluator.NetLengthWithCellsAt's append order for bitwise equality.
func (v *View) TrialNetAt2(n netlist.NetID, x1, y1, x2, y2 float64) float64 {
	g := &v.inc.geoms[n]
	switch v.inc.est {
	case HPWL:
		v.ev.cand2(x1, y1, x2, y2)
		return hpwlTrial(g.xv, g.yv, v.ev.candX, v.ev.candY)
	case Steiner:
		v.ev.cand2(x1, y1, x2, y2)
		return steinerTrial(g.xv, g.xp, g.yv, g.yp, v.ev.candX, v.ev.candY)
	case RMST:
		v.collectRemaining(n)
		v.ev.xs = append(v.ev.xs, x1, x2)
		v.ev.ys = append(v.ev.ys, y1, y2)
		return v.ev.rmstLength()
	}
	panic("wire: unknown estimator")
}

// collectRemaining fills the view scratch with the net's non-removed pins
// in pin order (driver, then sinks) from the mirror — the same order
// Evaluator.collect produces, which keeps RMST trials bitwise identical.
func (v *View) collectRemaining(n netlist.NetID) {
	inc := v.inc
	net := inc.ckt.Net(n)
	v.ev.xs, v.ev.ys = v.ev.xs[:0], v.ev.ys[:0]
	add := func(id netlist.CellID) {
		if id == netlist.NoCell {
			return
		}
		for _, r := range inc.removed {
			if r == id {
				return
			}
		}
		v.ev.xs = append(v.ev.xs, inc.cx[id])
		v.ev.ys = append(v.ev.ys, inc.cy[id])
	}
	add(net.Driver)
	for _, s := range net.Sinks {
		add(s)
	}
}

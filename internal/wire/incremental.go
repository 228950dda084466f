package wire

import (
	"cmp"
	"fmt"
	"slices"

	"simevo/internal/netlist"
)

// Incremental is a net-cost engine that maintains cached per-net geometry
// — a coordinate mirror per cell plus sorted pin-coordinate multisets and
// their prefix sums (for the Steiner trunk/median math) per net — so that:
//
//   - a trial placement of one cell is scored in O(log p) per net
//     (TrialNetAt / TrialNetAt2) instead of re-collecting and re-sorting
//     every pin;
//   - after a batch of cell moves, only the nets incident to the moved
//     cells ("dirty" nets) are re-derived, instead of recomputing every net
//     from scratch.
//
// A dirty net is re-derived in one visit. A net a journal drain dirtied
// is stale: the visit (refresh) collects the net's pins from the mirror in
// pin order, refills the sorted multisets and prefix sums, computes the
// committed length, and evaluates the excluded length of every requested
// cell on the net (Exclusions, the goodness measure's O_i basis). A net
// that only per-pin edits (MoveCell, PlaceCell) changed keeps its sorted
// multisets current, so its visit (relength) recomputes just the length
// and the exclusions from them. The committed length takes the span and
// the median from the sorted multisets and sums the Steiner branches over
// the pins in pin order: the value the from-scratch Evaluator computes over
// the same coordinates, bit for bit — the serial, Type I, and Type II
// trajectory invariants depend on this. Exclusions and trials go through the
// canonical formulas of excl.go and trial.go, shared with the Evaluator,
// and are likewise bitwise reproducible.
//
// An Incremental is not safe for concurrent use: it carries the scratch
// for the net visits and the trial scoring.
//
// Storage is one flat array: each net owns a contiguous block holding its
// sorted x values, sorted y values, and their prefix sums, carved out at
// construction. The multisets hold values only — nothing
// reads which cell a sorted entry belongs to, so pins are inserted and
// removed by value. The per-net netGeom fields are capacity-capped slice
// headers aliasing the block, so the insert/remove-by-memmove mutation
// paths can never spill into a neighboring net's block (a net's pin count
// never exceeds its degree) and never allocate. Walking nets in id order —
// the dirty-net refresh, trial compilation — therefore walks contiguous
// memory.
type Incremental struct {
	ckt *netlist.Circuit

	cx, cy []float64 // per-cell coordinate mirror
	geoms  []netGeom // per-net sorted pin geometry (headers into flat)

	// Backing for the per-net geometry: net n's block is xv|yv (deg(n)
	// each), followed by xp|yp (deg(n)+1 each).
	flat []float64

	// Flat cell-net incidence: cell id's distinct incident nets (with pin
	// multiplicities) are pinRefs[pinOff[id]:pinOff[id+1]], in CellNets
	// order.
	pinRefs []PinRef
	pinOff  []int32
	// The same incidence seen from the nets: net n's pins, in pin order
	// (driver, then sinks), belong to pin references
	// netRef[netOff[n]:netOff[n+1]].
	netRef []int32
	netOff []int32

	// Goodness exclusions: excl[r] is the length of pinRefs[r]'s net
	// without the pins of the cell owning r. It is kept current for the
	// wanted cells (Want) by every net refresh; a newly wanted cell's
	// entries are reset to -1 until computed.
	excl     []float64
	want     []uint8 // per cell: 1 while in wantList
	wantList []netlist.CellID
	unfilled bool            // some wanted entry may still be -1
	pending  []netlist.NetID // Exclusions scratch: nets to refresh

	lengths  []float64        // committed per-net lengths
	dirty    []netlist.NetID  // nets changed since the last Lengths
	stale    []netlist.NetID  // nets Drain marked stale, not yet visited (for Sync)
	state    []uint8          // per net: netListed | netStale | netEdited | netQueued
	removed  []netlist.CellID // cells lifted out for trial scanning
	oldX     []float64        // coords of removed cells, parallel to removed
	oldY     []float64
	drainBuf []netlist.CellID // scratch for Drain
	built    bool             // Rebuild has run at least once

	// Scratch of the net visits and the trials: the pin-order collection
	// and candidate staging (ev), the rank sort and each pin's sorted
	// positions.
	ev         *Evaluator
	ranks      []rankPair
	posX, posY []int32
}

// Per-net state bits.
const (
	netListed uint8 = 1 << iota // on the dirty list
	netStale                    // geometry, length and exclusions need a refresh
	netEdited                   // geometry current; length and exclusions need a relength
	netQueued                   // on the Exclusions pending list

	netPending = netStale | netEdited // the net's visit is due
)

// netGeom holds one net's cached geometry: pin coordinates sorted per axis,
// plus prefix sums for the Steiner branch math (len = len(values)+1). The
// slices are capacity-capped windows into the net's block of the
// Incremental's flat backing array.
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

// NewIncremental returns an incremental Steiner evaluator for one circuit.
// Rebuild must run before any other use.
func NewIncremental(ckt *netlist.Circuit) *Incremental {
	inc := &Incremental{
		ckt:     ckt,
		cx:      make([]float64, len(ckt.Cells)),
		cy:      make([]float64, len(ckt.Cells)),
		geoms:   make([]netGeom, ckt.NumNets()),
		lengths: make([]float64, ckt.NumNets()),
		state:   make([]uint8, ckt.NumNets()),
		want:    make([]uint8, len(ckt.Cells)),
		ev:      NewEvaluator(ckt),
	}
	inc.buildPins()
	inc.excl = make([]float64, len(inc.pinRefs))
	inc.buildFlat()
	return inc
}

// buildPins precomputes the cell-net incidence with pin multiplicities so
// the mutation paths touch each incident net in O(1) instead of rescanning
// the net's sink list. The incidence is itself flat: one contiguous PinRef
// array with per-cell offsets, and per net the references of its pins.
// Both are filled in one pass over the pins, so a high-fanout net costs its
// degree, not its degree squared.
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
			inc.pinRefs = append(inc.pinRefs, PinRef{Net: n})
		}
		inc.pinOff[id+1] = int32(len(inc.pinRefs))
	}
	inc.netOff = make([]int32, ckt.NumNets()+1)
	for n := range ckt.Nets {
		inc.netOff[n+1] = inc.netOff[n] + int32(inc.netDegree(netlist.NetID(n)))
	}
	inc.netRef = make([]int32, inc.netOff[ckt.NumNets()])
	for n := range ckt.Nets {
		net := ckt.Net(netlist.NetID(n))
		at := inc.netOff[n]
		// Point the pin at its cell's reference to the net and count it
		// there; a cell has only a few nets to search.
		pin := func(c netlist.CellID) {
			r := inc.pinOff[c]
			for inc.pinRefs[r].Net != netlist.NetID(n) {
				r++
			}
			inc.pinRefs[r].K++
			inc.netRef[at] = r
			at++
		}
		if net.Driver != netlist.NoCell {
			pin(net.Driver)
		}
		for _, c := range net.Sinks {
			pin(c)
		}
	}
}

// buildFlat allocates the flat backing array and points every net's
// geometry headers at its block. Each window is sized to the net's full
// degree and capacity-capped, so the in-place mutation paths can neither
// reallocate nor cross into a neighbor.
func (inc *Incremental) buildFlat() {
	total := 0
	for n := range inc.geoms {
		total += 4*inc.netDegree(netlist.NetID(n)) + 2
	}
	inc.flat = make([]float64, total)
	off := 0
	for n := range inc.geoms {
		deg := inc.netDegree(netlist.NetID(n))
		g := &inc.geoms[n]
		b := inc.flat[off : off+4*deg+2]
		g.xv = b[:deg:deg]
		g.yv = b[deg : 2*deg : 2*deg]
		g.xp = b[2*deg : 2*deg : 3*deg+1]
		g.yp = b[3*deg+1 : 3*deg+1 : 4*deg+2]
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

// Coord returns the mirrored coordinates of a cell, satisfying Coords (the
// congestion grid's source contract reads the mirror through it).
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

// Rebuild resynchronizes the full state — mirror, multisets, committed
// lengths and the wanted cells' exclusions — from the given coordinates.
// Rebuilding from a consistent state reproduces the cached values bit for
// bit.
func (inc *Incremental) Rebuild(coords Coords) {
	if len(inc.removed) != 0 {
		panic("wire: Rebuild with removed cells outstanding")
	}
	for i := range inc.cx {
		inc.cx[i], inc.cy[i] = coords.Coord(netlist.CellID(i))
	}
	for n := range inc.geoms {
		inc.refresh(netlist.NetID(n))
		inc.state[n] = 0
	}
	inc.dirty = inc.dirty[:0]
	inc.stale = inc.stale[:0]
	inc.unfilled = false
	inc.built = true
}

// refresh re-derives one net from the mirror in a single visit. It collects
// the pins in pin order (driver, then sinks), refills the sorted multisets
// and prefix sums, computes the committed length, and evaluates the
// excluded length of every wanted cell on the net. Only Steiner trunks
// (more than three pins) read the pins in pin order; other nets are
// collected straight into their sorted arrays. When an exclusion on the
// net can keep more than three pins, the refill ranks the pins: the sort
// records where each pin's value starts in the sorted axes, which are the
// positions the trunk formulas need. The visit writes only this net's
// geometry block, length slot and pin references.
func (inc *Incremental) refresh(n netlist.NetID) {
	g := &inc.geoms[n]
	net := inc.ckt.Net(n)
	deg := inc.netDegree(n)
	g.xv, g.yv = g.xv[:deg], g.yv[:deg]
	if deg <= 3 {
		wanted := inc.collect(net, g.xv, g.yv)
		sortFloats(g.xv)
		sortFloats(g.yv)
		inc.refreshPrefix(g, 0, 0)
		inc.lengths[n] = spanLength(g)
		if wanted {
			inc.excludeNet(n, false) // the spans need no positions
		}
		return
	}
	ev := inc.ev
	ev.xs, ev.ys = resizeFloats(ev.xs, deg), resizeFloats(ev.ys, deg)
	wanted := inc.collect(net, ev.xs, ev.ys)
	if wanted && deg > 4 {
		inc.posX = rankInto(g.xv, ev.xs, inc.posX, &inc.ranks)
		inc.posY = rankInto(g.yv, ev.ys, inc.posY, &inc.ranks)
	} else {
		copy(g.xv, ev.xs)
		copy(g.yv, ev.ys)
		sortFloats(g.xv)
		sortFloats(g.yv)
	}
	inc.refreshPrefix(g, 0, 0)
	inc.lengths[n] = inc.netLength(g)
	if wanted {
		inc.excludeNet(n, true)
	}
}

// relength recomputes the committed length and the wanted cells'
// exclusions of a net whose sorted multisets and prefix sums per-pin edits
// kept current: the span is read from the sorted ends, and only Steiner
// trunks collect the pins, in pin order, for their branch sums. The values
// equal refresh's, which differs only in refilling the arrays first. Like
// refresh it writes only this net's length slot and pin references.
func (inc *Incremental) relength(n netlist.NetID) {
	g := &inc.geoms[n]
	net := inc.ckt.Net(n)
	deg := len(g.xv)
	var wanted bool
	if deg <= 3 {
		inc.lengths[n] = spanLength(g)
		wanted = len(inc.wantList) != 0 && inc.wanted(net)
	} else {
		ev := inc.ev
		ev.xs, ev.ys = resizeFloats(ev.xs, deg), resizeFloats(ev.ys, deg)
		wanted = inc.collect(net, ev.xs, ev.ys)
		inc.lengths[n] = inc.netLength(g)
	}
	if wanted {
		inc.excludeNet(n, false)
	}
}

// visit brings a dirty net's length and exclusions up to date: refresh for
// a stale net, relength for one only per-pin edits changed. It leaves the
// state bits alone.
func (inc *Incremental) visit(n netlist.NetID) {
	switch s := inc.state[n]; {
	case s&netStale != 0:
		inc.refresh(n)
	case s&netEdited != 0:
		inc.relength(n)
	}
}

// spanLength is the half-perimeter of a net's sorted axes, 0 below two
// pins.
func spanLength(g *netGeom) float64 {
	n := len(g.xv)
	if n < 2 {
		return 0
	}
	return (g.xv[n-1] - g.xv[0]) + (g.yv[n-1] - g.yv[0])
}

// wanted reports whether a wanted cell is on the net.
func (inc *Incremental) wanted(net *netlist.Net) bool {
	if d := net.Driver; d != netlist.NoCell && inc.want[d] != 0 {
		return true
	}
	for _, c := range net.Sinks {
		if inc.want[c] != 0 {
			return true
		}
	}
	return false
}

// collect writes the net's pin coordinates from the mirror, in pin order,
// into xs and ys (each of the net's degree) and reports whether a wanted
// cell is on the net.
func (inc *Incremental) collect(net *netlist.Net, xs, ys []float64) (wanted bool) {
	i := 0
	if d := net.Driver; d != netlist.NoCell {
		xs[0], ys[0] = inc.cx[d], inc.cy[d]
		wanted = inc.want[d] != 0
		i = 1
	}
	for j, c := range net.Sinks {
		xs[i+j], ys[i+j] = inc.cx[c], inc.cy[c]
		wanted = wanted || inc.want[c] != 0
	}
	return wanted
}

// netLength is the committed length of a just-refreshed net with more than
// three pins, bitwise the Evaluator's NetLength over the same coordinates:
// min and max are the sorted ends, the median is the sorted middle, and
// the branch sums run over the visit's pin-order collection exactly like
// trunkLength.
func (inc *Incremental) netLength(g *netGeom) float64 {
	h := trunkSorted(g.xv, g.yv, inc.ev.ys) // horizontal trunk
	w := trunkSorted(g.yv, g.xv, inc.ev.xs) // vertical trunk
	if w < h {
		return w
	}
	return h
}

// excludeNet evaluates the exclusion of every wanted cell on net n from the
// net's current geometry. ranked reports that the visit's rank sort left
// the pins' sorted positions in posX/posY; otherwise exclude searches for
// the ones it needs.
func (inc *Incremental) excludeNet(n netlist.NetID, ranked bool) {
	g := &inc.geoms[n]
	net := inc.ckt.Net(n)
	refs := inc.netRef[inc.netOff[n]:inc.netOff[n+1]]
	i := 0
	if d := net.Driver; d != netlist.NoCell {
		if inc.want[d] != 0 {
			inc.exclude(g, d, refs[0], 0, ranked)
		}
		i++
	}
	for j, c := range net.Sinks {
		if inc.want[c] != 0 {
			inc.exclude(g, c, refs[i+j], i+j, ranked)
		}
	}
}

// exclude stores the length of the net with geometry g without cell c's
// pins into c's pin reference r, c holding the net's pin i (in pin order).
// A cell with several pins on the net is evaluated at each of them; the
// value is the same.
func (inc *Incremental) exclude(g *netGeom, c netlist.CellID, r int32, i int, ranked bool) {
	k := int(inc.pinRefs[r].K)
	m := len(g.xv) - k
	rx, ry := inc.cx[c], inc.cy[c]
	x := 0.0
	switch {
	case m < 2:
	case m <= 3:
		x = hpwlExcl(g.xv, g.yv, rx, ry, k)
	default:
		var xLo, yLo int
		if ranked {
			xLo, yLo = int(inc.posX[i]), int(inc.posY[i])
		} else {
			xLo, yLo = searchF64(g.xv, rx), searchF64(g.yv, ry)
		}
		x = steinerExcl(g.xv, g.xp, g.yv, g.yp, rx, ry, xLo, yLo, k)
	}
	inc.excl[r] = x
}

// rankPair is one value of a net axis with its pin index, the sort key of
// rankInto.
type rankPair struct {
	v float64
	i int32
}

// rankInto writes vals in ascending order into dst and, for every pin i,
// the first index of its value in dst into pos[i] — the lower-bound
// position searchF64 would find. pos and the pair scratch are grown as
// needed and returned.
func rankInto(dst, vals []float64, pos []int32, buf *[]rankPair) []int32 {
	ps := (*buf)[:0]
	for i, x := range vals {
		ps = append(ps, rankPair{x, int32(i)})
	}
	if len(ps) <= 32 {
		for i := 1; i < len(ps); i++ {
			p := ps[i]
			j := i - 1
			for j >= 0 && ps[j].v > p.v {
				ps[j+1] = ps[j]
				j--
			}
			ps[j+1] = p
		}
	} else {
		slices.SortFunc(ps, func(a, b rankPair) int { return cmp.Compare(a.v, b.v) })
	}
	*buf = ps
	if cap(pos) < len(ps) {
		pos = make([]int32, len(ps))
	}
	pos = pos[:len(ps)]
	start := 0
	for j, p := range ps {
		if j > 0 && p.v != ps[j-1].v {
			start = j
		}
		dst[j] = p.v
		pos[p.i] = int32(start)
	}
	return pos
}

// refreshPrefix brings both prefix-sum arrays up to date after edits that
// left xv[:xLo] and yv[:yLo] in place. Entries up to those indices are
// unchanged, and the accumulation resumes from the stored partial sum, so
// the bits equal a fresh left-to-right prefixInto — the canonical form
// every evaluator produces, independent of edit history.
func (inc *Incremental) refreshPrefix(g *netGeom, xLo, yLo int) {
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
// now at (x, y), marking those nets dirty; their next visit only
// recomputes length and exclusions (relength). Removal is a binary search
// into each sorted axis plus a memmove; no-op when the coordinates are
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
		inc.markDirty(n, netEdited)
	})
}

// RemoveCell lifts a cell's pins out of its nets' multisets so that trial
// scoring needs no exclusion logic: a trial is then simply "stored pins
// plus candidate point(s)". The mirror keeps the old coordinates until
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
			inc.markDirty(n, netEdited)
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

// Drain applies the source's coordinate-change journal to the mirror and
// marks the nets of every moved cell stale. The marked nets' geometry,
// lengths and exclusions stay stale until the next Lengths or NetLength
// re-derives them, so nothing may read or edit them in between; Sync is
// the variant that refreshes at once. The source must be the same
// placement the state was last rebuilt from. Drain returns the number of
// nets on the dirty list, the nets the next Lengths refreshes.
//
// Unlike MoveCell — which edits each net's sorted arrays one pin at a time
// and pays two binary searches, two memmoves, and a prefix refresh per pin
// — a drain batches: it updates the whole mirror first, and the flush then
// refreshes each touched net once from the mirror. A journal drain
// typically moves a large fraction of the cells (every allocated cell plus
// the row repacking behind it), so most touched nets have several moved
// pins and the single refill is cheaper than the per-pin edits. The
// refilled arrays hold the same sorted value multisets the per-pin edits
// would produce, so every downstream value is bit-identical.
func (inc *Incremental) Drain(src ChangeSource) int {
	if len(inc.removed) != 0 {
		panic("wire: Drain with removed cells outstanding")
	}
	inc.drainBuf = src.DrainChangedCells(inc.drainBuf[:0])
	for _, id := range inc.drainBuf {
		x, y := src.Coord(id)
		if inc.cx[id] == x && inc.cy[id] == y {
			continue
		}
		inc.cx[id], inc.cy[id] = x, y
		for _, ref := range inc.CellPins(id) {
			if inc.state[ref.Net]&netStale == 0 {
				inc.stale = append(inc.stale, ref.Net)
			}
			inc.markDirty(ref.Net, netStale)
		}
	}
	return len(inc.dirty)
}

// Sync is Drain followed by an immediate refresh of every stale net, so the
// geometry is current for trials and per-pin edits right away. It visits
// only the nets drains marked stale, not the whole dirty list: a caller
// that syncs between per-pin edits (SA, TS) keeps a growing list of edited
// nets. The dirty list survives until the next Lengths, for DirtySnapshot.
func (inc *Incremental) Sync(src ChangeSource) {
	inc.Drain(src)
	for _, n := range inc.stale {
		if inc.state[n]&netStale != 0 {
			inc.refresh(n)
			inc.state[n] &^= netPending
		}
	}
	inc.stale = inc.stale[:0]
}

// refreshStale visits every net on the dirty list that is still due,
// leaving the list itself in place.
func (inc *Incremental) refreshStale() {
	for _, n := range inc.dirty {
		if inc.state[n]&netPending != 0 {
			inc.visit(n)
			inc.state[n] &^= netPending
		}
	}
	inc.stale = inc.stale[:0]
}

// Lengths refreshes the dirty nets and returns all committed per-net
// lengths in dst (allocated if too small).
func (inc *Incremental) Lengths(dst []float64) []float64 {
	inc.flush()
	dst = resizeFloats(dst, len(inc.lengths))
	copy(dst, inc.lengths)
	return dst
}

// NetLength returns one net's committed length, visiting the net first if
// it changed since.
func (inc *Incremental) NetLength(n netlist.NetID) float64 {
	if inc.state[n]&netPending != 0 {
		if len(inc.removed) != 0 {
			panic("wire: NetLength with removed cells outstanding")
		}
		inc.visit(n)
		inc.state[n] &^= netPending
	}
	return inc.lengths[n]
}

// Want makes the given cells the wanted set: from here on every net
// refresh also evaluates their exclusions, in the same visit as the net's
// length. A caller that knows which cells it will ask Exclusions for
// declares them before the evaluation that dirties the nets, so that
// evaluation computes them; Exclusions keeps the set of its last call.
func (inc *Incremental) Want(cells []netlist.CellID) {
	if slices.Equal(cells, inc.wantList) {
		return
	}
	for _, id := range cells {
		if inc.want[id] == 0 {
			// Not maintained while unwanted.
			for r := inc.pinOff[id]; r < inc.pinOff[id+1]; r++ {
				inc.excl[r] = -1
			}
		}
		inc.want[id] = 2
	}
	for _, id := range inc.wantList {
		if inc.want[id] == 1 {
			inc.want[id] = 0
		}
	}
	for _, id := range cells {
		inc.want[id] = 1
	}
	inc.wantList = append(inc.wantList[:0], cells...)
	inc.unfilled = true
}

// Exclusions makes the given cells the wanted set (Want) and brings the
// excluded lengths of all their pins up to date; CellExcl then reads them.
// The net refreshes since the cells became wanted have computed most of
// them, so this call only fills what no refresh covered: the nets of newly
// wanted cells that have not changed since. Each such net is visited once,
// for all wanted cells on it; its geometry is current, so the visit
// searches the sorted axes for the positions the Steiner formula needs
// instead of ranking the pins again. Only the wanted cells' pins are
// evaluated. No cells may be removed.
func (inc *Incremental) Exclusions(cells []netlist.CellID) {
	if len(inc.removed) != 0 {
		panic("wire: Exclusions with removed cells outstanding")
	}
	inc.refreshStale()
	inc.Want(cells)
	if !inc.unfilled {
		return
	}
	for _, id := range cells {
		for r := inc.pinOff[id]; r < inc.pinOff[id+1]; r++ {
			if inc.excl[r] >= 0 {
				continue
			}
			n := inc.pinRefs[r].Net
			if inc.state[n]&netQueued == 0 {
				inc.state[n] |= netQueued
				inc.pending = append(inc.pending, n)
			}
		}
	}
	// These nets have not changed since their last refresh: only the
	// exclusions are missing.
	for _, n := range inc.pending {
		inc.state[n] &^= netQueued
		inc.excludeNet(n, false)
	}
	inc.pending = inc.pending[:0]
	inc.unfilled = false
}

// CellExcl returns, parallel to CellPins(id), the length of each incident
// net without the cell's pins. The cell must have been among the cells of
// the last Exclusions call, and no net may have changed since the last
// Exclusions or Lengths call. The slice aliases internal state; callers
// must not mutate it.
func (inc *Incremental) CellExcl(id netlist.CellID) []float64 {
	return inc.excl[inc.pinOff[id]:inc.pinOff[id+1]]
}

// PinIndex returns the index of the cell's first pin reference in the flat
// incidence, so callers can keep their own per-pin tables parallel to it:
// entry PinIndex(id)+i belongs to CellPins(id)[i].
func (inc *Incremental) PinIndex(id netlist.CellID) int { return int(inc.pinOff[id]) }

// NumPins returns the number of pin references in the flat incidence.
func (inc *Incremental) NumPins() int { return len(inc.pinRefs) }

// Built reports whether Rebuild has initialized the state.
func (inc *Incremental) Built() bool { return inc.built }

// DirtySnapshot copies the current dirty-net list — the nets touched by
// mutations since the last Lengths — into dst (reused if roomy). The copy
// survives the flush that Lengths performs, which is what a dirty-net cost
// fold needs: it captures the list before reading the refreshed lengths,
// then folds exactly those nets in.
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
		inc.visit(n)
		inc.state[n] &^= netListed | netPending
	}
	inc.dirty = inc.dirty[:0]
	inc.stale = inc.stale[:0]
}

// markDirty lists net n and marks its visit due: bit is netStale when the
// net's geometry must be refilled from the mirror, netEdited when per-pin
// edits kept it current.
func (inc *Incremental) markDirty(n netlist.NetID, bit uint8) {
	inc.state[n] |= bit
	if inc.state[n]&netListed == 0 {
		inc.state[n] |= netListed
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

// sortFloats sorts v ascending: insertion sort for the small nets that
// dominate a netlist, pdqsort past that.
func sortFloats(v []float64) {
	if len(v) > 32 {
		slices.Sort(v)
		return
	}
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

// TrialNetAt estimates the net's length with the stored pins plus one
// candidate point in O(log p). The cell being trialled must have been
// lifted out with RemoveCell beforehand.
func (inc *Incremental) TrialNetAt(n netlist.NetID, x, y float64) float64 {
	g := &inc.geoms[n]
	stored := len(g.xv)
	if stored == 0 {
		return 0
	}
	if stored <= 2 {
		return bboxPlus1(g.xv[0], g.xv[stored-1], g.yv[0], g.yv[stored-1], x, y)
	}
	return steinerTrial1(g.xv, g.xp, g.yv, g.yp, x, y)
}

// TrialNetAt2 estimates the net's length with two candidate points (the
// pairwise-swap trial). Both trialled cells must have been lifted out with
// RemoveCell beforehand. Candidate order matches
// Evaluator.NetLengthWithCellsAt's append order for bitwise equality.
func (inc *Incremental) TrialNetAt2(n netlist.NetID, x1, y1, x2, y2 float64) float64 {
	g := &inc.geoms[n]
	inc.ev.cand2(x1, y1, x2, y2)
	return steinerTrial(g.xv, g.xp, g.yv, g.yp, inc.ev.candX, inc.ev.candY)
}

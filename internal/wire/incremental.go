package wire

import (
	"cmp"
	"fmt"
	"slices"

	"simevo/internal/netlist"
)

// Incremental is a net-cost engine that maintains cached per-net geometry
// — a coordinate mirror per cell plus sorted pin-coordinate multisets and
// their prefix sums (for the Steiner trunk/median math) per net — so that
// a trial placement of one cell is scored in O(log p) per net (TrialNetAt,
// TrialNetAt2, TrialSet) instead of re-collecting and re-sorting every pin.
//
// The state changes in exactly two ways. Rebuild re-derives every net
// from a coordinate source: the mirror is copied, and one visit per net
// (refresh) collects its pins in pin order, refills the sorted multisets
// and prefix sums, computes the committed length, and evaluates the
// excluded length of every wanted cell on the net (Exclusions, the
// goodness measure's O_i basis). Per-pin edits (RemoveCell, PlaceCell,
// MoveCell) keep the multisets and prefix sums current one pin at a time
// and nothing else: an edit that moves a cell leaves the committed
// lengths and exclusions behind until the next Rebuild, and Lengths and
// Exclusions panic until then. The one exception is NetLength after
// MoveCell, which relengths a net MoveCell edited when it is read
// (relength). The committed length takes the span and the median from the
// sorted multisets and sums the Steiner branches over the pins in pin
// order: the value the from-scratch Evaluator computes over the same
// coordinates, bit for bit — the serial, Type I, and Type II trajectory
// invariants depend on this. Exclusions and trials go through the
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
// Rebuild, trial compilation — therefore walks contiguous memory.
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
	// without the pins of the cell owning r. Rebuild computes it for the
	// wanted cells (Want); a newly wanted cell's entries are reset to -1
	// until Exclusions fills them.
	excl     []float64
	want     []uint8 // per cell: 1 while in wantList
	wantList []netlist.CellID
	unfilled bool            // some wanted entry may still be -1
	pending  []netlist.NetID // Exclusions scratch: nets to refresh

	lengths []float64        // committed per-net lengths
	state   []uint8          // per net: netEdited | netQueued
	stale   uint8            // staleMoved | stalePlaced: cell moves since the last Rebuild
	removed []netlist.CellID // cells lifted out for trial scanning
	oldX    []float64        // coords of removed cells, parallel to removed
	oldY    []float64
	built   bool // Rebuild has run at least once

	// Scratch of the net visits and the trials: the pin-order collection
	// and candidate staging (ev), the rank sort and each pin's sorted
	// positions.
	ev         *Evaluator
	ranks      []rankPair
	posX, posY []int32
}

// Per-net state bits.
const (
	netEdited uint8 = 1 << iota // MoveCell changed the geometry; the length needs a relength
	netQueued                   // on the Exclusions pending list
)

// Incremental.stale bits: what moved a cell since the last Rebuild.
const (
	staleMoved  uint8 = 1 << iota // MoveCell: NetLength still reads its nets
	stalePlaced                   // PlaceCell at new coordinates: no length is current
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
// for the committed coordinates of the last Rebuild, which makes it
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
// bit, so a rebuild and any sequence of per-pin edits that reaches the
// same coordinates leave identical values.
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
	inc.stale = 0
	inc.unfilled = false
	inc.built = true
}

// refresh re-derives one net from the mirror in a single visit (Rebuild's
// per-net pass). It collects
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

// relength recomputes the committed length of a net whose sorted
// multisets and prefix sums per-pin edits kept current: the span is read
// from the sorted ends, and only Steiner trunks collect the pins, in pin
// order, for their branch sums. The value equals refresh's, which differs
// only in refilling the arrays first.
func (inc *Incremental) relength(n netlist.NetID) {
	g := &inc.geoms[n]
	deg := len(g.xv)
	if deg <= 3 {
		inc.lengths[n] = spanLength(g)
		return
	}
	ev := inc.ev
	ev.xs, ev.ys = resizeFloats(ev.xs, deg), resizeFloats(ev.ys, deg)
	inc.collect(inc.ckt.Net(n), ev.xs, ev.ys)
	inc.lengths[n] = inc.netLength(g)
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
// now at (x, y). NetLength relengths each of those nets when it is next
// read; Lengths and Exclusions panic until the next Rebuild. Removal is a
// search into each sorted axis plus a memmove; an axis whose coordinate is
// unchanged is left alone, as is the whole state when both are.
func (inc *Incremental) MoveCell(id netlist.CellID, x, y float64) {
	if inc.cx[id] == x && inc.cy[id] == y {
		return
	}
	oldX, oldY := inc.cx[id], inc.cy[id]
	inc.cx[id], inc.cy[id] = x, y
	inc.stale |= staleMoved
	inc.eachNet(id, func(n netlist.NetID, g *netGeom, k int) {
		xLo, yLo := len(g.xv), len(g.yv)
		for i := 0; i < k; i++ {
			if x != oldX {
				xLo = min(xLo, removePin(&g.xv, oldX), insertPin(&g.xv, x))
			}
			if y != oldY {
				yLo = min(yLo, removePin(&g.yv, oldY), insertPin(&g.yv, y))
			}
		}
		inc.refreshPrefix(g, xLo, yLo)
		inc.state[n] |= netEdited
	})
}

// RemoveCell lifts a cell's pins out of its nets' multisets so that trial
// scoring needs no exclusion logic: a trial is then simply "stored pins
// plus candidate point(s)". The mirror keeps the old coordinates until
// PlaceCell re-inserts the cell. NetLength must not relength a net while
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

// PlaceCell re-inserts a removed cell at (x, y). At new coordinates it
// leaves every committed length and exclusion behind until the next
// Rebuild: Lengths, NetLength and Exclusions panic until then. A
// remove/restore pair (trial scanning that keeps the old spot) leaves them
// valid.
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
	if inc.oldX[idx] != x || inc.oldY[idx] != y {
		inc.stale |= stalePlaced
	}
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

// Lengths returns the committed per-net lengths of the last Rebuild in dst
// (allocated if too small). It panics if a per-pin edit moved a cell since.
func (inc *Incremental) Lengths(dst []float64) []float64 {
	inc.requireCurrent("Lengths")
	dst = resizeFloats(dst, len(inc.lengths))
	copy(dst, inc.lengths)
	return dst
}

// requireCurrent panics if a per-pin edit moved a cell since the last
// Rebuild.
func (inc *Incremental) requireCurrent(op string) {
	if inc.stale != 0 {
		panic("wire: " + op + " after a per-pin move without Rebuild")
	}
}

// NetLength returns one net's committed length, relengthing the net first
// if MoveCell edited it since. It panics after a PlaceCell at new
// coordinates until the next Rebuild.
func (inc *Incremental) NetLength(n netlist.NetID) float64 {
	if inc.stale&stalePlaced != 0 {
		panic("wire: NetLength after PlaceCell without Rebuild")
	}
	if inc.state[n]&netEdited != 0 {
		if len(inc.removed) != 0 {
			panic("wire: NetLength with removed cells outstanding")
		}
		inc.relength(n)
		inc.state[n] &^= netEdited
	}
	return inc.lengths[n]
}

// Want makes the given cells the wanted set: from the next Rebuild on,
// its net visits also evaluate their exclusions, in the same visit as the
// net's length. A caller that knows which cells it will ask Exclusions
// for declares them before the evaluation's Rebuild, so the rebuild
// computes them; Exclusions keeps the set of its last call.
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
// The last Rebuild computed those of the cells wanted then, so this call
// only fills the nets of newly wanted cells. Each such net is visited
// once, for all wanted cells on it; its geometry is the rebuilt one, so
// the visit searches the sorted axes for the positions the Steiner
// formula needs instead of ranking the pins again. Only the wanted cells'
// pins are evaluated. No cells may be removed, and no per-pin edit may
// have moved a cell since the last Rebuild.
func (inc *Incremental) Exclusions(cells []netlist.CellID) {
	if len(inc.removed) != 0 {
		panic("wire: Exclusions with removed cells outstanding")
	}
	inc.requireCurrent("Exclusions")
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
	// These nets have not changed since the Rebuild: only the exclusions
	// are missing.
	for _, n := range inc.pending {
		inc.state[n] &^= netQueued
		inc.excludeNet(n, false)
	}
	inc.pending = inc.pending[:0]
	inc.unfilled = false
}

// CellExcl returns, parallel to CellPins(id), the length of each incident
// net without the cell's pins. The cell must have been among the cells of
// the last Exclusions call, and no cell may have moved since. The slice
// aliases internal state; callers must not mutate it.
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

// StoredSpan returns the half-perimeter of the net's stored pins (0 when
// all pins are removed) — the scan-ordering key for compiled trials.
func (inc *Incremental) StoredSpan(n netlist.NetID) float64 {
	g := &inc.geoms[n]
	if len(g.xv) == 0 {
		return 0
	}
	return (g.xv[len(g.xv)-1] - g.xv[0]) + (g.yv[len(g.yv)-1] - g.yv[0])
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

// Package wire estimates the routed length of placement nets.
//
// The paper estimates interconnect wirelength per net with a Steiner tree
// and sums the estimates (Section 2). The engine measures every net, trial
// and exclusion with that one model: a single-trunk rectilinear Steiner
// tree, the standard constructive approximation, which equals the
// half-perimeter bounding box for nets with up to three pins. Evaluator
// computes it from scratch and Incremental from a cached mirror, bit for
// bit alike. The half-perimeter (HPWL) and rectilinear minimum spanning
// tree (RMST) models are a reporting diagnostic only: LengthsBy measures
// whole nets under any Estimator, and nothing in the engine reads them.
package wire

import (
	"slices"

	"simevo/internal/netlist"
)

// Coords exposes physical cell-center coordinates; *layout.Placement
// satisfies it.
type Coords interface {
	Coord(id netlist.CellID) (x, y float64)
}

// Estimator names a whole-net length model for LengthsBy, the reporting
// diagnostic. The engine's Evaluator and Incremental measure Steiner only.
type Estimator uint8

// Available estimators.
const (
	// HPWL is the half-perimeter of the pins' bounding box.
	HPWL Estimator = iota
	// Steiner is a single-trunk rectilinear Steiner tree: a trunk through
	// the median pin coordinate with a branch per pin, taking the cheaper
	// of the two trunk orientations. Equals HPWL for nets with <= 3 pins
	// and upper-bounds it otherwise.
	Steiner
	// RMST is the rectilinear minimum spanning tree over the pins (rmst.go).
	RMST
)

// Evaluator computes Steiner net lengths for one circuit from scratch: the
// reference the Incremental mirror is pinned to. It keeps scratch buffers,
// so it is not safe for concurrent use; each goroutine should own one.
type Evaluator struct {
	ckt *netlist.Circuit
	xs  []float64
	ys  []float64
	med []float64 // scratch for the median (and the RMST keys of LengthsBy)

	// Trial scratch: candidate points plus sorted copies with prefix sums
	// for the canonical trial formulas (trial.go).
	candX, candY []float64
	sxs, sys     []float64
	pxs, pys     []float64
}

// NewEvaluator returns a Steiner evaluator for the circuit.
func NewEvaluator(ckt *netlist.Circuit) *Evaluator {
	return &Evaluator{ckt: ckt}
}

// collect gathers pin coordinates of the net, optionally excluding every
// pin belonging to cell `exclude` (pass netlist.NoCell to keep all).
func (e *Evaluator) collect(net *netlist.Net, exclude netlist.CellID, coords Coords) {
	e.xs, e.ys = e.xs[:0], e.ys[:0]
	add := func(id netlist.CellID) {
		if id == exclude {
			return
		}
		x, y := coords.Coord(id)
		e.xs = append(e.xs, x)
		e.ys = append(e.ys, y)
	}
	add(net.Driver)
	for _, s := range net.Sinks {
		add(s)
	}
}

// NetLength estimates the length of one net.
func (e *Evaluator) NetLength(id netlist.NetID, coords Coords) float64 {
	e.collect(e.ckt.Net(id), netlist.NoCell, coords)
	return e.lengthOf()
}

// NetLengthExcluding estimates the net length over all pins except those of
// the excluded cell. This is the basis of the per-cell "optimal cost"
// estimate O_i used by the goodness measure: a cell placed optimally can
// always reach the remaining pins' tree at zero marginal bounding-box cost.
//
// It computes the canonical excluding formulas of excl.go over the full
// sorted pin multiset, producing bitwise the same value as the Incremental
// engine's per-pin exclusions (Incremental.Exclusions) over the cached
// state — the reference side of the goodness-equivalence invariant.
func (e *Evaluator) NetLengthExcluding(id netlist.NetID, exclude netlist.CellID, coords Coords) float64 {
	net := e.ckt.Net(id)
	e.collect(net, netlist.NoCell, coords)
	k := 0
	if net.Driver == exclude {
		k++
	}
	for _, s := range net.Sinks {
		if s == exclude {
			k++
		}
	}
	if k == 0 {
		return e.lengthOf() // the cell has no pin on this net
	}
	m := len(e.xs) - k
	if m < 2 {
		return 0
	}
	rx, ry := coords.Coord(exclude)
	e.sxs = append(e.sxs[:0], e.xs...)
	e.sys = append(e.sys[:0], e.ys...)
	slices.Sort(e.sxs)
	slices.Sort(e.sys)
	if m <= 3 {
		return hpwlExcl(e.sxs, e.sys, rx, ry, k)
	}
	e.pxs = prefixInto(e.pxs, e.sxs)
	e.pys = prefixInto(e.pys, e.sys)
	return steinerExcl(e.sxs, e.pxs, e.sys, e.pys, rx, ry, searchF64(e.sxs, rx), searchF64(e.sys, ry), k)
}

// NetLengthWithCellAt estimates the net length with one cell's pins moved
// to (x, y) — the trial-position evaluation used by the allocation
// operator. It computes the canonical trial formulas of trial.go over the
// remaining pins, producing bitwise the same value as
// Incremental.TrialNetAt with the cell removed.
func (e *Evaluator) NetLengthWithCellAt(id netlist.NetID, cell netlist.CellID, x, y float64, coords Coords) float64 {
	e.collect(e.ckt.Net(id), cell, coords)
	e.cand1(x, y)
	return e.trialLength()
}

// NetLengthWithCellsAt estimates the net length with two cells moved to new
// positions simultaneously — the pairwise-swap trial evaluation used by the
// SA/TS move generators for nets containing both cells. Canonical like
// NetLengthWithCellAt; candidate order is (x1,y1) then (x2,y2).
func (e *Evaluator) NetLengthWithCellsAt(id netlist.NetID, c1 netlist.CellID, x1, y1 float64,
	c2 netlist.CellID, x2, y2 float64, coords Coords) float64 {
	net := e.ckt.Net(id)
	e.xs, e.ys = e.xs[:0], e.ys[:0]
	add := func(cid netlist.CellID) {
		if cid == c1 || cid == c2 {
			return
		}
		x, y := coords.Coord(cid)
		e.xs = append(e.xs, x)
		e.ys = append(e.ys, y)
	}
	add(net.Driver)
	for _, s := range net.Sinks {
		add(s)
	}
	e.cand2(x1, y1, x2, y2)
	return e.trialLength()
}

func (e *Evaluator) cand1(x, y float64) {
	e.candX = append(e.candX[:0], x)
	e.candY = append(e.candY[:0], y)
}

func (e *Evaluator) cand2(x1, y1, x2, y2 float64) {
	e.candX = append(e.candX[:0], x1, x2)
	e.candY = append(e.candY[:0], y1, y2)
}

// trialLength scores the collected pins (e.xs/e.ys) plus the staged
// candidates through the canonical trial formulas. Up to three pins the
// bounding box is order-independent, so the candidates are simply
// appended; larger nets are sorted with fresh prefix sums and handed to
// steinerTrial.
func (e *Evaluator) trialLength() float64 {
	m := len(e.xs) + len(e.candX)
	if m < 2 {
		return 0
	}
	if m <= 3 {
		e.xs = append(e.xs, e.candX...)
		e.ys = append(e.ys, e.candY...)
		return hpwl(e.xs, e.ys)
	}
	e.sxs = append(e.sxs[:0], e.xs...)
	e.sys = append(e.sys[:0], e.ys...)
	slices.Sort(e.sxs)
	slices.Sort(e.sys)
	e.pxs = prefixInto(e.pxs, e.sxs)
	e.pys = prefixInto(e.pys, e.sys)
	return steinerTrial(e.sxs, e.pxs, e.sys, e.pys, e.candX, e.candY)
}

// lengthOf is the Steiner length of the collected pins.
func (e *Evaluator) lengthOf() float64 {
	n := len(e.xs)
	if n < 2 {
		return 0
	}
	if n <= 3 {
		return hpwl(e.xs, e.ys) // exact Steiner length for <= 3 pins
	}
	h := trunkLength(e.xs, e.ys, &e.med) // horizontal trunk
	v := trunkLength(e.ys, e.xs, &e.med) // vertical trunk
	if v < h {
		return v
	}
	return h
}

func hpwl(xs, ys []float64) float64 {
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := 1; i < len(xs); i++ {
		if xs[i] < minX {
			minX = xs[i]
		}
		if xs[i] > maxX {
			maxX = xs[i]
		}
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// trunkLength computes the single-trunk Steiner length with the trunk
// running along the first axis: trunk span plus a perpendicular branch from
// every pin to the trunk at the median second-axis coordinate.
func trunkLength(along, across []float64, scratch *[]float64) float64 {
	minA, maxA := along[0], along[0]
	for _, v := range along[1:] {
		if v < minA {
			minA = v
		}
		if v > maxA {
			maxA = v
		}
	}
	med := median(across, scratch)
	sum := maxA - minA
	for _, v := range across {
		if v > med {
			sum += v - med
		} else {
			sum += med - v
		}
	}
	return sum
}

func median(v []float64, scratch *[]float64) float64 {
	switch len(v) {
	case 1:
		return v[0]
	case 2:
		return (v[0] + v[1]) / 2
	}
	if cap(*scratch) < len(v) {
		*scratch = make([]float64, len(v))
	}
	s := (*scratch)[:len(v)]
	copy(s, v)
	slices.Sort(s) // non-reflective pdqsort; scratch is reused across calls
	return sortedMedian(s)
}

// sortedMedian returns the median of ascending values: the middle one, or
// the mean of the two middle ones.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trunkSorted is trunkLength for a net whose axes are also held sorted:
// the span and the median come from the sorted copies (the same values
// trunkLength finds by scanning and sorting), and the branch sum runs over
// across in pin order, so the result is bitwise trunkLength's.
func trunkSorted(alongSorted, acrossSorted, across []float64) float64 {
	med := sortedMedian(acrossSorted)
	sum := alongSorted[len(alongSorted)-1] - alongSorted[0]
	for _, v := range across {
		if v > med {
			sum += v - med
		} else {
			sum += med - v
		}
	}
	return sum
}

// Lengths fills dst (allocated if nil) with per-net length estimates and
// returns it.
func (e *Evaluator) Lengths(coords Coords, dst []float64) []float64 {
	if cap(dst) < e.ckt.NumNets() {
		dst = make([]float64, e.ckt.NumNets())
	}
	dst = dst[:e.ckt.NumNets()]
	for i := range dst {
		dst[i] = e.NetLength(netlist.NetID(i), coords)
	}
	return dst
}

// LengthsBy fills dst (allocated if nil) with every net's length under est
// and returns it: the whole-net reporting diagnostic behind
// metrics.WirelengthByEstimator. Steiner gives the Evaluator's lengths.
func LengthsBy(ckt *netlist.Circuit, est Estimator, coords Coords, dst []float64) []float64 {
	e := NewEvaluator(ckt)
	if est == Steiner {
		return e.Lengths(coords, dst)
	}
	dst = resizeFloats(dst, ckt.NumNets())
	var inTree []bool
	for i := range dst {
		e.collect(ckt.Net(netlist.NetID(i)), netlist.NoCell, coords)
		switch {
		case len(e.xs) < 2:
			dst[i] = 0
		case est == HPWL:
			dst[i] = hpwl(e.xs, e.ys)
		case est == RMST:
			dst[i] = rmstLength(e.xs, e.ys, &e.med, &inTree)
		default:
			panic("wire: unknown estimator")
		}
	}
	return dst
}

// Total sums per-net lengths: the paper's Cost_wire.
func Total(lengths []float64) float64 {
	sum := 0.0
	for _, l := range lengths {
		sum += l
	}
	return sum
}

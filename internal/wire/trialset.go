package wire

import (
	"math"
	"sort"

	"simevo/internal/netlist"
)

// TrialSet is a compiled scorer for one cell's weighted allocation trial
// cost. The allocation operator scores every vacancy for every selected
// cell — O(|S|²) trials per iteration — so per-trial dispatch matters:
// CompileTrials collapses each incident net into a tagged record once per
// cell, and Score runs a tight loop over the records:
//
//	trialZero  — the cell owns every pin; the trial length is 0.
//	trialBBox  — the trial degenerates to a bounding box (a net with <= 3
//	             total pins): four precomputed bounds, pure arithmetic per
//	             trial.
//	trialTrunk — general Steiner net: precomputed spans and median anchors
//	             (the merged median of "sorted pins plus one point" is a
//	             clamp between middle anchors).
//
// Vacancies sit on row centerlines, and the row-sharded scan enters each
// row at most once per cell, so it holds the state of one row at a time:
// on entry fillRowTail computes every trunk record's y-dependent half —
// the y branch total, the extended y span (yHalf) — and the row's suffix
// bounds, and the walk then pays only the x-side arithmetic per trial.
// Score computes the y half per call.
//
// Score sums net costs in compile order with the same multiply-add
// sequence as the scalar path, so its result is bitwise identical to
// Σ Incremental.TrialNetAt(nets[i], x, y) · weights[i] — and to the
// engine's from-scratch reference mode.
type TrialSet struct {
	items []compiledTrial

	// Row state of the scan (fillRowTail). rowTail[i] is a lower bound on
	// the weighted cost of items i.. for ANY candidate in the row entered
	// last, x-penalties aside (the walk tracks those separately, see
	// xlo/xhi): Σ_{j>=i} w_j · lb_j, where
	//
	//   - a bbox item's lb is its exact y half plus its stored x span:
	//     storedSpanX + ySpanExt, with ySpanExt the stored y span extended
	//     to the row's centerline;
	//   - a trunk item's lb is storedSpanX + min(yBranch, ySpanExt + eX).
	//     The horizontal orientation costs spanX(x) + yBranch, and
	//     spanX(x) = storedSpanX + xPen(x). The vertical one costs
	//     ySpanExt + xBranch(x), and xBranch(x) >= spanX(x) + eX, where eX
	//     = D − storedSpanX is the branch excess of the stored pins (D =
	//     Σ|x_i − m| about a stored median m). The merged x branch sum is
	//     min_m [Σ|x_i − m| + |x − m|]. The first term is always >= D. If
	//     m lies past the stored interval's end on the candidate's side,
	//     by δ, it is >= D + k·δ (k >= 1 stored pins) while |x − m| >=
	//     xPen(x) − δ; anywhere else |x − m| >= xPen(x) outright. Either
	//     way the sum is >= D + xPen(x) = spanX(x) + eX. The stored eX
	//     also has a rounding allowance deducted (branchExcess), so the
	//     bound holds against the computed branch sums too;
	//   - empty items contribute 0.
	//
	// Trunk window. Where a trunk item's vertical orientation is the
	// cheaper one in the row, Vc = ySpanExt + D* < Hc = S + yBranch (S the
	// stored x span, D* = S + eX), its term charges Vc flat across the
	// row, though the vertical cost grows with the candidate's distance
	// from the stored x median interval medI = [medLo, medHi] (the middle
	// value, or the two middle values). Adding a point x to a multiset
	// raises its least L1 deviation by at least dist(x, medI): Σ|x_i − m|
	// >= D + dist(m, medI) for any m, and |x − m| >= dist(x, medI) −
	// dist(m, medI). So xBranch(x) >= D* + dist(x, medI), and the item's
	// trial length, min(Hc + xPen(x), ySpanExt + xBranch(x)), exceeds its
	// share min(Hc, Vc) + xPen(x) by at least exc(x) = min(Hc − Vc, dist(x,
	// medI) − xPen(x)) >= 0, times w. Every other item covers its own
	// share, so the trial costs at least rowTail[0] + xLB(x) + w·exc(x) >=
	// rowTail[0] + minEnv + w·exc(x), and a vacancy can beat the bound only
	// if w·exc(x) < b = bound/scanSlack − rowTail[0] − minEnv. An item with
	// w·(Hc − Vc) >= b therefore confines the row to dist(x, medI) −
	// xPen(x) < b/w: within the stored span xPen is 0, so x must lie in
	// (medLo − b/w, medHi + b/w); past the span's end the excess stays at
	// its value there (medLo − minX on the left, maxX − medHi on the
	// right). A window edge inside the span thus also excludes every
	// vacancy past the span on that side, and an edge that reaches past
	// the span leaves that side unconstrained. scanRow intersects the
	// windows of the row's items (trunkWindow) and walks only inside.
	// Rounding: b, Hc − Vc and b/w round relative to the bound (rowTail
	// already holds w·Vc), which scanSlack covers as it covers rowTail; the
	// branch sums behind xBranch and D* are covered by eX's allowance; the
	// edges round at the magnitude of the coordinates, so each is widened
	// by prefixAllowance, the allowance branchExcess deducts
	// (compiledTrial.wlo/whi).
	//
	// The weights embed the active objective scores — in wpd mode the
	// cached per-net timing criticality, in wpc/wpdc mode the congestion
	// grid's per-net demand score — so the bound is criticality- and
	// congestion-aware: hot nets carry inflated weights and their bound
	// mass prunes proportionally harder, which is what keeps wpd/wpdc
	// scans pruning like wp scans.
	rowTail []float64
	// vert lists the vertically cheaper trunk items of the row entered
	// last, with their gaps w·(Hc − Vc); vertMax is the largest gap (−Inf
	// when the list is empty). trunkWindow reads only these items, and
	// only when vertMax reaches the row's budget.
	vert    []trunkGap
	vertMax float64
	// rowY holds every row's centerline (the caller's slice); rowC is the
	// constant part C of rowBound; anchorRow is where the best-first row
	// order starts, a row of least rowBound.
	rowY      []float64
	rowC      float64
	anchorRow int
	// Per-item x-penalty envelope for the per-vacancy precheck and the
	// outward walk. xlo/xhi/xw hold the stored x-interval and weight of
	// every bbox/trunk item, so xLB(x) = Σ w_j · dist(x, [xlo_j, xhi_j])
	// is a lower bound on the x-extension the candidate forces across the
	// whole trial (each bbox/trunk cost is at least storedSpan + xPen +
	// yPen; see rowTail). rowBound(r) + xLB(x) therefore lower-bounds the
	// entire trial cost.
	//
	// xLB is convex piecewise-linear with its (real-arithmetic) minimum on
	// the weighted-median interval [xCutLo, xCutHi] of the item intervals:
	// beyond it, xLB is nondecreasing outward, so once the precheck prunes
	// a vacancy past the cut point the entire remaining bucket tail in
	// that direction is dominated and cut wholesale. FP rounding can bend
	// the computed sum a few ULPs off true monotonicity, but the prune
	// compares against bound/scanSlack: the 1e-12 slack dwarfs both the
	// summation error and any near-zero-slope misjudgment of the cut
	// interval, so a cut vacancy's true cost still reaches the bound.
	// anchorX, the midpoint of the cut interval (the envelope's minimum
	// region), seeds the in-row walk, and anchorSeg is its envelope
	// segment, the seed of both walk directions' cursors. minEnv is the
	// envelope evaluated at xCutLo: the smallest x penalty any vacancy can
	// carry, and exactly the best-case penalty of a row whose free range
	// spans xCutLo.
	hasPrune       bool
	xlo, xhi, xw   []float64
	ylo, yhi       []float64 // same items' y-intervals (weights shared via xw)
	xCutLo, xCutHi float64
	anchorX        float64
	anchorSeg      int
	minEnv         float64
	evp, evw       []float64 // cutInterval scratch: sorted positions, weights
	// Piecewise-linear form of the x envelope, built once per cell from the
	// cut interval's sorted endpoints: xbp are the deduplicated breakpoints,
	// xbv[i] = xLB(xbp[i]), and xbs[i] the slope on [xbp[i], xbp[i+1]);
	// left of xbp[0] the slope is -xTotW (the negated total weight). envAt
	// evaluates the envelope in O(1) given the segment index, turning the
	// per-vacancy O(items) penalty loop into a monotone cursor walk. The
	// segment values are a breakpoint sweep that starts at the items' own
	// extent, so its rounding stays at the scale of the trial and every
	// compare against them is deflated by scanSlack alone.
	xbp, xbv, xbs []float64
	xTotW         float64
}

// scanSlack deflates the estimate-based prune thresholds of the vacancy
// scans. The suffix bound compares cost + rowTail[i+1] against the running
// bound, but rowTail is a *reassociated* float sum: it can exceed the true
// sequentially-rounded remaining cost by a few ULPs (and the per-item
// trial arithmetic itself carries ~1e-14 relative error), so an exact
// comparison could prune a vacancy whose true cost is a hair below the
// bound — observed with the nextafter-seeded own-slot bound, where the
// rightful winner sits exactly 1 ULP under it and a wrong prune drops
// the scan into the width-violation fallback. Scaling the estimate down
// by 1e-12 (about 100× the worst accumulated rounding error for any
// realistic net count, and far below any score difference that could
// matter) makes the prune sound: estimate·scanSlack >= bound implies the
// true cost >= bound, so only genuine non-winners are skipped and the
// winner is bitwise the brute-force scan's. Prefix-only bails
// (cost >= bound over the already-accumulated exact terms) need no slack.
// The slack covers rounding relative to the estimate only; rounding at the
// magnitude of the coordinates (trunk branch sums) is deducted from the
// bounds where it arises (branchExcess).
const scanSlack = 1 - 1e-12

type trialKind uint8

const (
	trialZero trialKind = iota
	trialBBox
	trialTrunk
)

type compiledTrial struct {
	kind trialKind
	oddM bool // trunk: merged pin count (stored+1) is odd
	w    float64

	// Stored pin bounds per axis (bbox and trunk items, the ones with
	// stored pins, whose bbox takes part in the prune bounds).
	minX, maxX, minY, maxY float64

	// Trunk: branch excess of the stored pins per axis, Σ|v_i − m| −
	// (v_max − v_min) about a stored median m, less a rounding allowance
	// (branchExcess): the true excess is >= 0, and 0 for 3 stored pins,
	// so the stored value can dip just below 0. The prune bounds use it
	// (see TrialSet.rowTail).
	ex, ey float64

	// Trunk: the stored x median interval [medLo, medHi] (the middle value,
	// or the two middle values) widened on each side by the same rounding
	// allowance branchExcess deducts: the core of the item's scan window
	// (see TrialSet.rowTail).
	wlo, whi float64

	// Trunk: median anchors around the merged middle. Odd merged count
	// uses a0..a1 (med = clamp(c, a0, a1)); even uses a0..a2
	// (med = (clamp(c,a0,a1)+clamp(c,a1,a2))/2). Same values mergedAt1
	// selects — precomputed to avoid per-trial indexing.
	ax0, ax1, ax2 float64
	ay0, ay1, ay2 float64

	// Trunk: sorted values and prefix sums for the branch sums.
	xv, xp, yv, yp []float64

	// Trunk: precomputed branch-sum split indices. The merged median is
	// confined to [a0, a1] (odd) or [a0, a2] (even), so the lower bound
	// branchSum needs resolves to: i?0 when med <= a0 (a compile-time
	// sort.Search — duplicates may pull it below the middle), ixMid when
	// med <= a1 (everything below the middle is strictly below med), and
	// ixMid+1 (even only) when med > a1. ixMid is positional and shared
	// by both axes.
	ix0, iy0, ixMid int32

	// Trunk: the y half (yHalf) at the centerline of the row the scan
	// entered last, filled by fillRowTail and read by the walk.
	yBranch, ySpan float64
}

// CompileTrials fills dst with the trial records for the given nets and
// parallel weights. The trialled cell must already be lifted out with
// RemoveCell; the records alias the live cached arrays, so they are valid
// until the next mutation of the incremental state.
func (inc *Incremental) CompileTrials(dst *TrialSet, nets []netlist.NetID, weights []float64) {
	dst.items = dst.items[:0]
	for i, n := range nets {
		g := &inc.geoms[n]
		it := compiledTrial{w: weights[i]}
		stored := len(g.xv)
		if stored > 0 {
			it.minX, it.maxX = g.xv[0], g.xv[stored-1]
			it.minY, it.maxY = g.yv[0], g.yv[stored-1]
		}
		switch {
		case stored == 0:
			it.kind = trialZero
		case stored <= 2:
			it.kind = trialBBox
		default:
			it.kind = trialTrunk
			it.xv, it.xp, it.yv, it.yp = g.xv, g.xp, g.yv, g.yp
			m := stored + 1
			if m%2 == 1 {
				k := m / 2
				it.oddM = true
				it.ax0, it.ax1 = g.xv[k-1], g.xv[k]
				it.ay0, it.ay1 = g.yv[k-1], g.yv[k]
				it.ixMid = int32(k)
			} else {
				j := m / 2
				it.ax0, it.ax1, it.ax2 = g.xv[j-2], g.xv[j-1], g.xv[j]
				it.ay0, it.ay1, it.ay2 = g.yv[j-2], g.yv[j-1], g.yv[j]
				it.ixMid = int32(j - 1)
			}
			it.ix0 = int32(sort.SearchFloat64s(g.xv, it.ax0))
			it.iy0 = int32(sort.SearchFloat64s(g.yv, it.ay0))
			it.ex = branchExcess(g.xv, g.xp)
			it.ey = branchExcess(g.yv, g.yp)
			a := prefixAllowance(stored, max(math.Abs(it.minX), math.Abs(it.maxX)))
			it.wlo, it.whi = g.xv[(stored-1)/2]-a, g.xv[stored/2]+a
		}
		dst.items = append(dst.items, it)
	}
}

// branchExcess returns Σ|v_i − m| − (v_max − v_min) for sorted values v with
// prefix sums p, m the upper middle value, less a rounding allowance. Both
// this branch sum and the one a trial computes are differences of prefix
// sums, so each can be off by about n²·ε·M in absolute terms (n values, M
// the largest |v|): rounding at the magnitude of the coordinates, not of
// the net, which scanSlack (relative to the score) does not cover for a
// short net far from the origin. Deducting prefixAllowance, over twice
// that, keeps every bound built on the excess under the computed trial
// cost. The result is not clamped: where the true excess is 0 (3 stored
// pins, or a trial branch sum that rounds below the span) the allowance
// makes it slightly negative, which is what keeps those bounds sound.
func branchExcess(v, p []float64) float64 {
	n := len(v)
	h := n / 2
	return branchSumAt(v, p, v[h], h) - (v[n-1] - v[0]) - prefixAllowance(n, max(math.Abs(v[0]), math.Abs(v[n-1])))
}

// prefixAllowance is 4(n+1)²·ε·m: the rounding allowance for quantities
// computed at the magnitude m of n sorted coordinates, such as a branch
// sum taken as a difference of prefix sums.
func prefixAllowance(n int, m float64) float64 {
	return 4 * float64((n+1)*(n+1)) * 0x1p-52 * m
}

// PrepareScan computes the prune state ScanBestRows consumes: the x
// envelope with its cut interval and anchor, the constant part of the row
// bound, and the row the scan starts from; the row state (rowTail) fills
// as the scan enters each row. rowY holds every row's centerline y in
// ascending order and must reproduce the candidates' y bit for bit (the
// engine passes layout.RowY of each row); the TrialSet keeps the slice,
// so it must not change while the set scans. O(items log items + log rows)
// — noise against the O(items·vacancies) scan it accelerates. Call after
// CompileTrials and before any ScanBestRows.
func (t *TrialSet) PrepareScan(rowY []float64) {
	t.rowY = rowY
	t.rowTail = resizeFloats(t.rowTail, len(t.items)+1)

	// Compile the x-penalty envelope, the walk anchor, and the constant
	// part C of the row bound (see rowBound).
	t.xlo, t.xhi, t.xw = t.xlo[:0], t.xhi[:0], t.xw[:0]
	t.ylo, t.yhi = t.ylo[:0], t.yhi[:0]
	t.anchorX = math.Inf(-1) // seek to the region start: right walk covers all
	t.rowC = 0
	for i := range t.items {
		it := &t.items[i]
		if it.kind == trialZero {
			continue
		}
		t.xlo = append(t.xlo, it.minX)
		t.xhi = append(t.xhi, it.maxX)
		t.xw = append(t.xw, it.w)
		t.ylo = append(t.ylo, it.minY)
		t.yhi = append(t.yhi, it.maxY)
		e := 0.0
		if it.kind == trialTrunk {
			e = min(it.ex, it.ey)
		}
		t.rowC += ((it.maxX - it.minX) + (it.maxY - it.minY) + e) * it.w
	}
	t.hasPrune = len(t.xw) > 0
	if !t.hasPrune {
		t.xCutLo, t.xCutHi = math.Inf(-1), math.Inf(1)
		t.minEnv = 0
		t.anchorRow = 0
		return
	}

	// Weighted-median cut interval of the x envelope; its midpoint is the
	// envelope's minimum region — the most promising x — and seeds the
	// outward walk.
	t.xCutLo, t.xCutHi = t.cutInterval(t.xlo, t.xhi)
	t.anchorX = (t.xCutLo + t.xCutHi) / 2
	// The x events are still sorted in evp/evw: fold them into the
	// piecewise-linear envelope the walks evaluate per vacancy.
	t.buildEnvelope()
	t.anchorSeg = t.envSeg(t.anchorX)
	t.minEnv = t.envAt(t.envSeg(t.xCutLo), t.xCutLo)

	// The row bound, convex in y, is least on the weighted-median interval
	// of the items' y intervals: start at a row inside it or, when it falls
	// between rows (or past either end), at the bracketing row of smaller
	// bound, so the bound grows moving away from anchorRow on both sides.
	lo, hi := t.cutInterval(t.ylo, t.yhi)
	lo, hi = min(lo, hi), max(lo, hi)
	r := sort.SearchFloat64s(rowY, lo)
	switch {
	case r == len(rowY):
		r--
	case r > 0 && rowY[r] > hi && t.rowBound(r-1) <= t.rowBound(r):
		r--
	}
	t.anchorRow = r
}

// rowBound is the whole-trial lower bound at row r's centerline y_r:
// C + Σ w_j · yPen_j(y_r), with C = Σ w_j · (storedSpan_j + e_j) (rowC) and
// yPen_j the distance from y_r to item j's stored y interval; e_j is
// min(eX, eY) for a trunk item and 0 otherwise. By the rowTail argument,
// and its mirror on y (yBranch(y) >= spanY(y) + eY), each trunk
// orientation costs at least spanX(x) + spanY(y) + min(eX, eY), so
// rowBound(r) + xLB(x) bounds every trial in the row. Its terms are
// non-negative apart from the trunks' rounding allowances, so it rounds
// relative to its value, which the compares' scanSlack covers. Out of
// range rows get +Inf.
func (t *TrialSet) rowBound(r int) float64 {
	if r < 0 || r >= len(t.rowY) {
		return math.Inf(1)
	}
	y, lb := t.rowY[r], t.rowC
	for j, w := range t.xw {
		if lo := t.ylo[j]; y < lo {
			lb += w * (lo - y)
		} else if hi := t.yhi[j]; y > hi {
			lb += w * (y - hi)
		}
	}
	return lb
}

// cutInterval sorts the prunable items' interval endpoints along one axis
// into evp/evw and returns the weighted-median interval [cutLo, cutHi] of
// the penalty envelope f(p) = Σ w_j · dist(p, I_j): the envelope's slope is
// ≤ 0 left of cutLo and ≥ 0 right of cutHi, so f is nonincreasing toward
// the interval from the left and nondecreasing away from it on the right —
// the directional-cut thresholds. Where f is flat between two breakpoints
// the two come out swapped (cutHi < cutLo). Leaves the sorted breakpoints
// in evp/evw (sortEvents) for buildEnvelope.
func (t *TrialSet) cutInterval(los, his []float64) (cutLo, cutHi float64) {
	total := t.sortEvents(los, his)
	// Slope left of everything is -total; each event adds its weight.
	slope := -total
	cutLo, cutHi = t.evp[0], math.NaN()
	for k := range t.evp {
		if slope <= 0 {
			cutLo = t.evp[k] // largest breakpoint with slope ≤ 0 on its left
		}
		slope += t.evw[k]
		if math.IsNaN(cutHi) && slope >= 0 {
			cutHi = t.evp[k] // smallest breakpoint with slope ≥ 0 on its right
		}
	}
	if math.IsNaN(cutHi) {
		cutHi = t.evp[len(t.evp)-1]
	}
	return cutLo, cutHi
}

// sortEvents fills evp/evw with the prunable items' interval endpoints
// along one axis, each carrying its item's weight, sorted by position, and
// returns the total weight.
func (t *TrialSet) sortEvents(los, his []float64) (total float64) {
	t.evp, t.evw = t.evp[:0], t.evw[:0]
	for j, w := range t.xw {
		t.evp = append(t.evp, los[j], his[j])
		t.evw = append(t.evw, w, w)
		total += w
	}
	// Insertion sort by position (ties keep insertion order; the envelope
	// slope only depends on the multiset of events at each position).
	for i := 1; i < len(t.evp); i++ {
		p, w := t.evp[i], t.evw[i]
		j := i - 1
		for j >= 0 && t.evp[j] > p {
			t.evp[j+1], t.evw[j+1] = t.evp[j], t.evw[j]
			j--
		}
		t.evp[j+1], t.evw[j+1] = p, w
	}
	return total
}

// buildEnvelope folds the sorted x events left in evp/evw by cutInterval
// into the piecewise-linear form of xLB(x) = Σ w_j · dist(x, [xlo_j,
// xhi_j]): deduplicated breakpoints xbp, the envelope value at each
// breakpoint xbv, and the slope of the segment to its right xbs. The
// value sweep integrates slope·Δx breakpoint to breakpoint, a
// reassociation of the per-item sum, so consumers must treat envAt
// results as scanSlack-deflated estimates, never exact sums.
func (t *TrialSet) buildEnvelope() {
	t.xbp, t.xbv, t.xbs = t.xbp[:0], t.xbv[:0], t.xbs[:0]
	total := 0.0
	for _, w := range t.xw {
		total += w
	}
	t.xTotW = total
	b0 := t.evp[0]
	f := 0.0
	for j, w := range t.xw {
		f += w * (t.xlo[j] - b0) // b0 = min endpoint ≤ every xlo
	}
	slope, prev := -total, b0
	for i := 0; i < len(t.evp); {
		p := t.evp[i]
		f += slope * (p - prev)
		for i < len(t.evp) && t.evp[i] == p {
			slope += t.evw[i]
			i++
		}
		t.xbp = append(t.xbp, p)
		t.xbv = append(t.xbv, f)
		t.xbs = append(t.xbs, slope)
		prev = p
	}
}

// envSeg returns the envelope segment index for x: the largest i with
// xbp[i] <= x, or -1 left of every breakpoint.
func (t *TrialSet) envSeg(x float64) int {
	seg := searchF64(t.xbp, x) - 1
	if seg+1 < len(t.xbp) && t.xbp[seg+1] == x {
		seg++
	}
	return seg
}

// envAt evaluates the x-penalty envelope at x, which must lie on segment
// seg (envSeg, or a cursor advanced by the caller). The result is a
// reassociated sum — compare it only slack-deflated.
func (t *TrialSet) envAt(seg int, x float64) float64 {
	if seg < 0 {
		return t.xbv[0] + t.xTotW*(t.xbp[0]-x)
	}
	return t.xbv[seg] + t.xbs[seg]*(x-t.xbp[seg])
}

// trunkGap is one vertically cheaper trunk item of a row: its index and
// its orientation gap w·(Hc − Vc) there.
type trunkGap struct {
	wg float64
	i  int
}

// fillRowTail enters a row: it computes every trunk item's y half at the
// row's centerline, which the walk then reads, and the row's suffix
// bounds rowTail at full sharpness: a bbox item contributes its exact y
// half (extended span), and a trunk item storedSpanX + min(yBranch,
// ySpanExt + eX) — the field comment proves both bounds. The xPen part is
// tracked separately by the walk's envelope (xRem). It also lists the
// row's vertically cheaper trunks (vert, vertMax) for trunkWindow.
func (t *TrialSet) fillRowTail(row int) {
	y := t.rowY[row]
	acc := 0.0
	t.vert, t.vertMax = t.vert[:0], math.Inf(-1)
	t.rowTail[len(t.items)] = 0
	for i := len(t.items) - 1; i >= 0; i-- {
		it := &t.items[i]
		switch it.kind {
		case trialBBox:
			yPen := 0.0
			if y < it.minY {
				yPen = it.minY - y
			} else if y > it.maxY {
				yPen = y - it.maxY
			}
			acc += ((it.maxX - it.minX) + (it.maxY - it.minY) + yPen) * it.w
		case trialTrunk:
			it.yBranch, it.ySpan = it.yHalf(y)
			yMin := it.yBranch // horizontal trunk
			if s := it.ySpan + it.ex; s < yMin {
				yMin = s // extended y span plus x branch excess (vertical trunk)
				wg := (it.yBranch - s) * it.w
				t.vert = append(t.vert, trunkGap{wg, i})
				t.vertMax = max(t.vertMax, wg)
			}
			acc += ((it.maxX - it.minX) + yMin) * it.w
		}
		t.rowTail[i] = acc
	}
}

// branch returns the branch total along one axis of a trunk item with the
// candidate coordinate c: Σ|v_i − med| + |c − med| over the stored sorted
// values v (prefix sums p), med the merged median, which lies between the
// axis's anchors a0..a2; i0 is the axis's split index at a0.
func (it *compiledTrial) branch(v, p []float64, a0, a1, a2 float64, i0 int32, c float64) float64 {
	var med float64
	if it.oddM {
		med = clampMed(c, a0, a1)
	} else {
		med = (clampMed(c, a0, a1) + clampMed(c, a1, a2)) / 2
	}
	var si int
	switch {
	case med <= a0:
		si = int(i0)
	case med <= a1:
		si = int(it.ixMid)
	default:
		si = int(it.ixMid) + 1
	}
	b := branchSumAt(v, p, med, si)
	if c > med {
		b += c - med
	} else {
		b += med - c
	}
	return b
}

// yHalf returns a trunk item's y-dependent half at candidate y: the y
// branch total of the horizontal orientation and the along-y span of the
// vertical one, the stored span extended to y.
func (it *compiledTrial) yHalf(y float64) (yBranch, ySpan float64) {
	yBranch = it.branch(it.yv, it.yp, it.ay0, it.ay1, it.ay2, it.iy0, y)
	loy, hiy := it.minY, it.maxY
	if y < loy {
		loy = y
	}
	if y > hiy {
		hiy = y
	}
	return yBranch, hiy - loy
}

// trunkLen is a trunk item's trial length at candidate x given its y half
// at the candidate's y: the cheaper of the horizontal trunk (along-x span
// plus the y branch total) and the vertical one (along-y span plus the x
// branch total).
func (it *compiledTrial) trunkLen(x, yBranch, ySpan float64) float64 {
	lox, hix := it.minX, it.maxX
	if x < lox {
		lox = x
	}
	if x > hix {
		hix = x
	}
	h := (hix - lox) + yBranch
	if v := ySpan + it.branch(it.xv, it.xp, it.ax0, it.ax1, it.ax2, it.ix0, x); v < h {
		return v
	}
	return h
}

// Score returns the weighted trial cost of placing the compiled cell at
// (x, y). Read-only.
func (t *TrialSet) Score(x, y float64) float64 {
	cost, _ := t.ScoreBounded(x, y, math.Inf(1))
	return cost
}

// ScoreBounded is Score with early exit: once the partial cost reaches
// bound, scoring stops and ok is false. Net contributions are
// non-negative, so a bailed trial's full cost would be >= bound — under a
// strict-minimum scan with bound set to the best score so far, the bail
// can only drop vacancies that would not have won (ties keep the earlier
// vacancy), leaving the selected slot — and the search trajectory —
// identical to an unbounded scan. When ok is true, cost is the complete
// sum, bitwise equal to Score's.
func (t *TrialSet) ScoreBounded(x, y, bound float64) (cost float64, ok bool) {
	for i := range t.items {
		it := &t.items[i]
		switch it.kind {
		case trialBBox:
			cost += bboxPlus1(it.minX, it.maxX, it.minY, it.maxY, x, y) * it.w
		case trialTrunk:
			yBranch, ySpan := it.yHalf(y)
			cost += it.trunkLen(x, yBranch, ySpan) * it.w
		case trialZero:
			// Trial length 0: contributes +0.0, which cannot change the
			// (non-negative) accumulator — skip the multiply-add. The
			// bound check below must still run: a trailing zero record
			// with cost exactly at bound is a tie, and ties must report
			// ok=false so the earlier vacancy keeps the win.
		}
		if cost >= bound {
			return cost, false
		}
	}
	// cost < bound holds whenever items is non-empty (the per-item check
	// ran); the explicit guard also covers a degenerate empty trial set.
	return cost, cost < bound
}

func clampMed(c, lo, hi float64) float64 {
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}

// Vacancy is one candidate slot for ScanBestRows: physical center plus the
// row. Y is the row's centerline; the scan reads the row's entry of
// PrepareScan's rowY instead.
type Vacancy struct {
	X, Y float64
	Row  int32
}

// ScanStats tallies where the vacancy scan spends (and saves) work: how many
// candidates it visited, how many each prune mechanism discarded, and
// how many survived to a full score. Accumulation is plain arithmetic —
// callers fold it into telemetry counters after the scan, keeping the
// inner loop free of atomics.
type ScanStats struct {
	Vacancies     uint64 // row-feasible candidates considered
	PrunedBBox    uint64 // dropped by the leading-net bbox pre-check
	PrunedSuffix  uint64 // dropped by the suffix-bound (rowTail) estimate
	BailedExact   uint64 // dropped by the exact partial-cost prefix check
	Scored        uint64 // fully scored (survived every prune)
	SkippedBucket uint64 // never visited: cut with its row or tail, or outside a trunk window
	RowsVisited   uint64 // row buckets entered by the sharded scan
}

// rowScan is ScanBestRows' walk state, shared by the two directional walks
// of each row. bound is the tie-admitting prune threshold: one ulp above
// the best score so far (or the caller's bound0 before any accept), so an
// out-of-order walk never bails an exact tie — the explicit index
// tie-break below then reproduces the flat scan's earliest-index winner.
type rowScan struct {
	bk        *VacancyBuckets
	st        *ScanStats
	best      int
	bestScore float64
	bound     float64
}

// ScanBestRows is the row-sharded vacancy scan for the compiled cell: it
// visits the listed rows of the buckets, skipping whole rows whose lower
// bound already reaches the running bound, and walking each surviving
// bucket outward from the vacancy nearest the cell's median anchor,
// within the row's trunk window: the x-range where every vertically
// cheaper trunk, which rowTail charges only its flat row share, can still
// pay its true cost under the bound (see rowTail; a row whose window is
// empty is skipped). Rows are entered best-first: the row bound
// (rowBound) grows moving away from anchorRow on both sides, so the scan
// grows one contiguous range of the list from there, each step entering
// whichever neighbouring listed row has the smaller bound, computed when
// the range first reaches it. That tightens the bound on the most
// promising rows first, and once one row's bound plus the smallest x
// penalty reaches the running bound, every farther row on its side does
// too, so that side is cut. The per-vacancy precheck — rowTail[0] plus
// the x-penalty envelope, weakly monotone in the outward x distance —
// cuts the entire remaining bucket tail the moment it fires beyond the
// cut interval, skipping dominated regions wholesale instead of bailing
// per vacancy.
//
// The winner is the lowest-index vacancy among those with the strictly
// smallest score — bitwise the first minimum of a flat in-order
// ScoreBounded loop — restored from the out-of-order walk by the
// tie-admitting bound plus an explicit index tie-break. Vacancies are
// scored at their bucket x and their row's centerline. Requires
// CompileTrials, PrepareScan (with rowY matching the vacancies' row
// centerlines), and a bucket Build over the same vacancy pool. Returns
// (-1, bound0) if no vacancy is admissible under bound0.
//
// rows lists, ascending, the bucket rows to scan; each must hold a free
// vacancy. feasible must be the number of free vacancies in them
// (RowLive summed over them). st counts each of them exactly once: as
// visited (Vacancies), or, the difference, as skipped wholesale
// (SkippedBucket).
func (t *TrialSet) ScanBestRows(bk *VacancyBuckets, rows []int,
	feasible int, bound0 float64, st *ScanStats) (int, float64) {
	if st == nil {
		st = new(ScanStats)
	}
	visited0 := st.Vacancies
	c := rowScan{bk: bk, st: st, best: -1, bound: bound0}
	// up and down index rows: the first listed row at or above anchorRow
	// and the last below it.
	up := sort.SearchInts(rows, t.anchorRow)
	down := up - 1
	lbUp, lbDown := t.listBound(rows, up), t.listBound(rows, down)
	for up < len(rows) || down >= 0 {
		if down < 0 || (up < len(rows) && lbUp <= lbDown) {
			if t.scanRow(&c, rows[up], lbUp) {
				up = len(rows)
			} else {
				up++
			}
			lbUp = t.listBound(rows, up)
		} else {
			if t.scanRow(&c, rows[down], lbDown) {
				down = -1
			} else {
				down--
			}
			lbDown = t.listBound(rows, down)
		}
	}
	st.SkippedBucket += uint64(feasible) - (st.Vacancies - visited0)
	if c.best < 0 {
		return -1, bound0
	}
	return c.best, c.bestScore
}

// listBound is the row bound of rows[i], +Inf past either end of the list.
func (t *TrialSet) listBound(rows []int, i int) float64 {
	if i < 0 || i >= len(rows) {
		return math.Inf(1)
	}
	return t.rowBound(rows[i])
}

// scanRow scans listed row r of the best-first order, whose bound is lb.
// A row whose lb plus the smallest x penalty minEnv, or lb plus the row's
// best-case x penalty, already reaches the running bound is skipped
// wholesale. scanRow reports true when the first skip fires: each side of
// the order moves away from anchorRow, and the row bound does not fall
// that way, so every remaining row on that side is dominated too, and the
// caller cuts the side. A row it enters is walked only inside its trunk
// window, taken at the bound on entry (the bound only falls during the
// walk, so the window stays sound), and a row whose window is empty is
// skipped. RowsVisited counts the listed rows the order reaches.
func (t *TrialSet) scanRow(c *rowScan, r int, lb float64) bool {
	bk := c.bk
	c.st.RowsVisited++
	if (lb+t.minEnv)*scanSlack >= c.bound {
		return true
	}
	lo, hi := bk.liveSpan(r)
	// Best-case x penalty anywhere in this row: the envelope is convex with
	// its minimum on [xCutLo, xCutHi], so its minimum over the row's free
	// vacancies is attained at the cut point clamped into their x range —
	// minEnv itself when that range spans xCutLo.
	xlb := t.minEnv
	if t.hasPrune && (bk.xs[lo] > t.xCutLo || bk.xs[hi-1] < t.xCutLo) {
		xc := min(max(t.xCutLo, bk.xs[lo]), bk.xs[hi-1])
		xlb = t.envAt(t.envSeg(xc), xc)
		if (lb+xlb)*scanSlack >= c.bound {
			return false
		}
	}
	t.fillRowTail(r)
	// Re-check with the row's sharp suffix bound before paying for the
	// seek and walk: rowTail[0] upgrades the span-based lb with the true
	// per-row trunk y halves.
	tail := t.rowTail[0]
	if (tail+xlb)*scanSlack >= c.bound {
		return false
	}
	// Confine the walk to the row's trunk window [wlo, whi) (see rowTail),
	// computed only where some trunk's gap reaches the row's budget, and
	// seek to the anchor clamped into it. Either walk then starts on its
	// own side of anchorX, as the envelope cursors need.
	wlo, whi := math.Inf(-1), math.Inf(1)
	if (tail+t.minEnv+t.vertMax)*scanSlack >= c.bound {
		if b := c.bound/scanSlack - tail - t.minEnv; b > 0 {
			if wlo, whi = t.trunkWindow(b); wlo >= whi {
				return false
			}
		}
	}
	p0 := bk.SeekGE(r, min(max(t.anchorX, wlo), whi))
	t.walkDir(c, r, p0, hi, +1, whi)
	t.walkDir(c, r, p0-1, lo-1, -1, wlo)
	return false
}

// trunkWindow intersects the x-windows of the vertically cheaper trunk
// items of the row entered last whose gap w·(Hc − Vc) reaches the budget
// b: item j confines the row to [wlo_j − b/w_j, whi_j + b/w_j), each side
// only where that edge stays within the item's stored x span (see
// rowTail).
func (t *TrialSet) trunkWindow(b float64) (wlo, whi float64) {
	wlo, whi = math.Inf(-1), math.Inf(1)
	for _, v := range t.vert {
		if v.wg < b {
			continue
		}
		it := &t.items[v.i]
		d := b / it.w
		if e := it.wlo - d; e >= it.minX && e > wlo {
			wlo = e
		}
		if e := it.whi + d; e <= it.maxX && e < whi {
			whi = e
		}
	}
	return wlo, whi
}

// walkDir walks the free vacancies of the row fillRowTail entered from
// position p toward end (exclusive) in steps of dir, scoring each under
// the cursor's running bound. It stops at the row's trunk window edge:
// past edge (x >= edge walking right, x < edge walking left) no vacancy
// can score under the bound. When the precheck fires at an x beyond the
// cut interval, every remaining position in the walk direction has a
// precheck value at least as large (the envelope is nondecreasing
// outward), so the walk stops — the dominated tail is never visited.
func (t *TrialSet) walkDir(c *rowScan, row, p, end, dir int, edge float64) {
	bk, st := c.bk, c.st
	items := t.items
	tail0 := t.rowTail[0]
	y := t.rowY[row]
	// The walk is monotone in x and starts on its own side of anchorX (p
	// is SeekGE's split there), so the envelope segment cursor, seeded at
	// the anchor's segment, advances amortized O(1) per position: each
	// vacancy's precheck is a single multiply-add instead of the O(items)
	// penalty loop.
	seg, nbp := t.anchorSeg, len(t.xbp)
walk:
	for ; p != end; p += dir {
		x := bk.xs[p]
		if (dir > 0 && x >= edge) || (dir < 0 && x < edge) {
			return
		}
		v := int(bk.order[p])
		st.Vacancies++
		xRem := 0.0
		if t.hasPrune {
			if dir > 0 {
				for seg+1 < nbp && t.xbp[seg+1] <= x {
					seg++
				}
			} else {
				for seg >= 0 && t.xbp[seg] > x {
					seg--
				}
			}
			// xRem estimates the x penalty still owed by the whole trial
			// (a reassociated sweep sum — compare only slack-deflated).
			xRem = t.envAt(seg, x)
			if (tail0+xRem)*scanSlack >= c.bound {
				st.PrunedBBox++
				if (dir > 0 && x >= t.xCutHi) || (dir < 0 && x <= t.xCutLo) {
					// Beyond the cut interval the envelope is
					// nondecreasing in the walk direction: cut the
					// whole tail.
					return
				}
				continue walk
			}
		}
		cost := 0.0
		for i := range items {
			it := &items[i]
			switch it.kind {
			case trialBBox:
				cost += bboxPlus1(it.minX, it.maxX, it.minY, it.maxY, x, y) * it.w
			case trialTrunk:
				cost += it.trunkLen(x, it.yBranch, it.ySpan) * it.w
			case trialZero:
				// Falls through to the bound check, like the flat scan: a
				// trailing zero record at the bound is handled by the
				// accept logic's index tie-break below.
			}
			// Retire this item's envelope term so xRem keeps tracking the
			// x-penalty still owed by items i+1... xRem started as the
			// sweep-built envelope estimate, so after retirement it can
			// sit a few ULPs off the true remainder in either direction —
			// too small only weakens the prune, too large is absorbed by
			// scanSlack like the reassociation error it already covers.
			if it.kind != trialZero {
				if x < it.minX {
					xRem -= it.w * (it.minX - x)
				} else if x > it.maxX {
					xRem -= it.w * (x - it.maxX)
				}
			}
			// Same two-stage bail as the flat scan, with the row-sharpened
			// suffix bound — plus the remaining x-penalty envelope: the
			// exact prefix check at full strength, then the estimate
			// deflated by scanSlack (it is a reassociated sum, and must
			// never prune a true sub-bound cost — the PR-5 ULP lesson).
			if cost >= c.bound {
				st.BailedExact++
				continue walk
			}
			if (cost+(t.rowTail[i+1]+xRem))*scanSlack >= c.bound {
				st.PrunedSuffix++
				continue walk
			}
		}
		st.Scored++
		// A completed score satisfies cost < bound = nextafter(best), so
		// cost <= bestScore: accept strict improvements and equal-score
		// candidates with a lower index — together with the tie-admitting
		// bound this reproduces the serial first-minimum exactly.
		if c.best < 0 || cost < c.bestScore || (cost == c.bestScore && v < c.best) {
			c.best, c.bestScore = v, cost
			c.bound = math.Nextafter(cost, math.Inf(1))
		}
	}
}

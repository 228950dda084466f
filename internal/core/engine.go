package core

import (
	"context"
	"math"
	"slices"
	"time"

	"simevo/internal/congest"
	"simevo/internal/cost"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/telemetry"
	"simevo/internal/wire"
)

// maxObjectives bounds the per-cell goodness accumulator arrays so the
// hot loop can keep them on the stack.
const maxObjectives = 8

// gainSrc is one objective's contribution to per-cell goodness and
// allocation trial weighting: either a per-net weight table (wirelength,
// power) or a direct per-cell scorer (delay).
type gainSrc struct {
	wIdx   int // index into Engine.gainW when weighted
	scorer cost.CellScored
}

// Engine is one SimE search: a placement plus the operator state. Engines
// are not safe for concurrent use; the parallel strategies give each rank
// its own engine (sharing the immutable Problem).
type Engine struct {
	prob  *Problem
	place *layout.Placement
	rnd   *rng.R

	ev      *wire.Evaluator
	lengths []float64

	// Objective pipeline: every active cost term behind the unified
	// cost.Objective interface, recomputed from the full length array on
	// every evaluation.
	pipe     *cost.Pipeline
	gains    []gainSrc     // per active objective, in aggregation order
	gainW    [][]float64   // weight tables of the weighted objectives
	congGrid *congest.Grid // congestion bin grid (nil unless Congest is active)

	// Incremental net-cost engine (nil in DisableIncremental mode). Every
	// evaluation rebuilds the mirror from the placement; between
	// evaluations only allocation's per-pin edits change it.
	inc *wire.Incremental

	// pinAttach[inc.PinIndex(id)+i] is attachSum for the cell's i-th
	// CellPins entry: widths never change, so the goodness fold reads the
	// attachment span of every (cell, net) pin reference from this table.
	pinAttach []int32

	goodness   []float64 // per cell id
	domain     []netlist.CellID
	inRows     []bool // DomainFromRows scratch, all false between calls
	allocOrder AllocOrder
	mu         float64
	costs      fuzzy.Costs

	best      *layout.Placement
	bestMu    float64
	bestCosts fuzzy.Costs
	bestIter  int

	iter    int
	muTrace []float64

	// Telemetry: tel is the per-run tally and the engine's only counters;
	// Profile derives from it and publish flushes its progress since pub.
	// scanStats is folded into tel once per allocation pass, keeping the
	// scan loop plain. Purely observational — never consulted by the search.
	tel       telemetry.EngineSnapshot
	pub       telemetry.EngineSnapshot
	scanStats wire.ScanStats

	// scratch buffers
	selected []netlist.CellID
	netsBuf  []netlist.NetID
	trialW   []float64     // per-net trial weights, parallel to netsBuf
	trialKey []float64     // per-net scan-ordering keys, parallel to netsBuf
	trials   wire.TrialSet // compiled per-cell trial scorer (incremental mode)
	goodsBuf []float64     // per-objective goodness scratch (cellGoodness)
	goodsOut []float64     // per-domain goodness scratch (Step)
	vacRef   []layout.SlotRef
	vacs     []wire.Vacancy
	vacUsed  []bool
	buckets  wire.VacancyBuckets // row-sharded x-sorted occupancy of vacs
	rowW     []int
	scanRows []int     // rows with a free vacancy the current cell fits (the scan's rows)
	rowY     []float64 // per row: centerline y (layout.RowY), the scan's rowY
}

func (e *Engine) init() {
	ckt := e.prob.Ckt
	cfg := &e.prob.Cfg
	e.ev = wire.NewEvaluator(ckt)
	if !cfg.DisableIncremental {
		e.inc = wire.NewIncremental(ckt)
		e.pinAttach = make([]int32, 0, e.inc.NumPins())
		for id := range ckt.Cells {
			for _, ref := range e.inc.CellPins(netlist.CellID(id)) {
				e.pinAttach = append(e.pinAttach, e.attachSum(ref.Net, netlist.CellID(id)))
			}
		}
	}
	// Wire and power are always evaluated (their raw costs are reported
	// even when inactive); delay only when the objective set asks for it.
	// Goodness and allocation weighting draw only on the active set.
	var extras []cost.Objective
	if cfg.Objectives.Has(fuzzy.Congest) {
		e.congGrid = congest.New(ckt, congestSpec(ckt, cfg), nil)
		extras = append(extras, e.congGrid)
	}
	e.pipe = cost.NewPipeline(cfg.Objectives|fuzzy.WirePower, ckt, e.prob.Acts, e.prob.Lv, cfg.TimingModel, extras...)
	e.pipe.EnableTiming() // surfaced through CostPhases (read by bench/)
	for _, o := range e.pipe.Objectives() {
		if !cfg.Objectives.Has(o.Bit()) {
			continue
		}
		switch x := o.(type) {
		case cost.LengthWeighted:
			e.gains = append(e.gains, gainSrc{wIdx: len(e.gainW)})
			e.gainW = append(e.gainW, x.Weights())
		case cost.CellScored:
			e.gains = append(e.gains, gainSrc{scorer: x})
		default:
			panic("core: objective " + o.Name() + " provides no goodness hook")
		}
	}
	if len(e.gains) > maxObjectives {
		panic("core: too many active objectives")
	}
	e.goodness = make([]float64, len(ckt.Cells))
	e.domain = append([]netlist.CellID(nil), ckt.Movable()...)
	e.bestMu = -1
}

// SetAllocOrder sets the allocation processing order for this engine
// (Type III search diversification); the default is WorstFirst.
func (e *Engine) SetAllocOrder(o AllocOrder) { e.allocOrder = o }

// Problem returns the shared problem description.
func (e *Engine) Problem() *Problem { return e.prob }

// Placement returns the engine's current placement (live object).
func (e *Engine) Placement() *layout.Placement { return e.place }

// Mu returns μ(s) of the solution at the last evaluation.
func (e *Engine) Mu() float64 { return e.mu }

// Costs returns the raw objective costs at the last evaluation.
func (e *Engine) Costs() fuzzy.Costs { return e.costs }

// Iter returns the number of completed iterations.
func (e *Engine) Iter() int { return e.iter }

// BestMu returns the best μ(s) observed so far (-1 before any evaluation).
func (e *Engine) BestMu() float64 { return e.bestMu }

// BestPlacement returns a snapshot of the best solution found (nil before
// any evaluation). The returned placement is owned by the engine; Clone it
// before mutation.
func (e *Engine) BestPlacement() *layout.Placement { return e.best }

// MuTrace returns μ(s) after every evaluation so far, oldest first. With
// Config.DisableMuTrace set, the trace is empty.
func (e *Engine) MuTrace() []float64 { return e.muTrace }

// DomainFromRows restricts evaluation, selection and allocation to all
// cells currently placed in the given rows (Type II domain decomposition).
// It marks the rows' cells and collects them in ID order, without a sort
// per call.
func (e *Engine) DomainFromRows(rows []int) {
	if e.inRows == nil {
		e.inRows = make([]bool, len(e.prob.Ckt.Cells))
	}
	for _, r := range rows {
		for _, id := range e.place.Row(r) {
			if id != netlist.NoCell {
				e.inRows[id] = true
			}
		}
	}
	e.domain = e.domain[:0]
	for _, id := range e.prob.Ckt.Movable() {
		if e.inRows[id] {
			e.inRows[id] = false
			e.domain = append(e.domain, id)
		}
	}
}

// SetPlacement replaces the current placement, taking ownership (no
// clone). The next evaluation recomputes it if dirty and rebuilds the
// net-length mirror from it, as every evaluation does. Type III searchers
// adopt a store solution this way, handing over the placement they just
// decoded.
func (e *Engine) SetPlacement(p *layout.Placement) { e.place = p }

// EvaluateCosts refreshes net lengths, recomputes every objective of the
// pipeline (wirelength, power, and — when active — delay and congestion)
// and μ(s), and updates the best-solution tracking. It does not touch
// per-cell goodness.
func (e *Engine) EvaluateCosts() {
	e.evaluateCosts()
	e.publish()
}

// evaluateCosts is EvaluateCosts for callers that publish after timing it.
func (e *Engine) evaluateCosts() {
	if e.place.Dirty() {
		e.place.Recompute()
	}
	cfg := &e.prob.Cfg
	if e.congGrid != nil {
		// Rebind the congestion geometry source every evaluation: the
		// placement object can be replaced between calls (SetPlacement),
		// and in incremental mode the cached pin multisets are the O(1)
		// bounding-box source. Both sources read the same committed
		// coordinates, so the grids bin identically.
		if e.inc != nil {
			e.congGrid.SetSource(e.inc)
		} else {
			e.congGrid.SetSource(congest.PlacementSource{P: e.place})
		}
	}
	if e.inc == nil {
		// Reference mode re-derives every net length from scratch.
		e.lengths = e.ev.Lengths(e.place, e.lengths)
	} else {
		// Allocation's row repacking moves most cells, so the mirror is
		// rebuilt from the placement rather than patched: one visit per
		// net also computes the wanted cells' exclusions.
		e.inc.Rebuild(e.place)
		e.lengths = e.inc.Lengths(e.lengths)
	}
	e.tel.FullRebuilds++
	e.costs = e.pipe.Full(e.lengths)
	e.tel.Evals++
	ratios := fuzzy.Ratio(e.costs, e.prob.Lower)
	e.mu = fuzzy.Eval(cfg.Objectives, ratios, cfg.Goals, e.prob.OWA, e.place.WidthViolation(cfg.Alpha))
	if !cfg.DisableMuTrace {
		e.muTrace = append(e.muTrace, e.mu)
	}

	if e.mu > e.bestMu {
		e.bestMu = e.mu
		e.bestCosts = e.costs
		e.bestIter = e.iter
		e.best = e.place.Clone()
	}
}

// CostPhases returns the accumulated per-objective pipeline time —
// bench/ reports it as the per-objective phase breakdown.
func (e *Engine) CostPhases() map[string]time.Duration { return e.pipe.Phases() }

// ComputeGoodness evaluates the goodness of the given cells (which must be
// distinct) into the engine's goodness table. EvaluateCosts must have run
// for the current placement. Returning the values in cell order supports
// the Type I master/slave protocol.
//
// With the incremental engine active, the excluded net lengths behind each
// cell's O_i come from the net visits (wire.Incremental.Exclusions). The
// cells of the last request stay wanted, and Step declares its domain
// before evaluating, so the mirror's Rebuild inside EvaluateCosts has
// already computed them; only nets of newly requested cells are visited
// here. Each cell's goodness is then a fold over its pin references.
func (e *Engine) ComputeGoodness(cells []netlist.CellID, dst []float64) []float64 {
	if cap(dst) < len(cells) {
		dst = make([]float64, len(cells))
	}
	dst = dst[:len(cells)]
	if e.inc != nil {
		e.inc.Exclusions(cells)
	}
	for i, id := range cells {
		g := e.cellGoodness(id)
		e.goodness[id] = g
		dst[i] = g
	}
	return dst
}

// SetGoodness installs externally computed goodness values (Type I master
// after gathering slave results).
func (e *Engine) SetGoodness(cells []netlist.CellID, vals []float64) {
	for i, id := range cells {
		e.goodness[id] = vals[i]
	}
}

// cellGoodness computes g_i = O_i / C_i aggregated over active objectives.
//
// Each weighted objective (wirelength: unit weights; power: switching
// activities) contributes ratio01(Σ w·optimal, Σ w·current) over the
// cell's nets, where "optimal" is the net over the remaining pins plus the
// minimal attachment span (half the cell's width plus half the nearest
// remaining cell's width, which a 2-pin net needs to be non-zero), clamped
// to the current length. A CellScored objective (delay) contributes its
// per-cell score directly: 1 − timing criticality (slack-based).
//
// The incremental engine folds, in CellPins order, the excluded lengths
// that ComputeGoodness requested and the tabulated attachment spans. The
// reference path (DisableIncremental) re-collects each net's pins through
// the from-scratch evaluator. Both sum the same values in the same order
// (CellPins follows CellNets), so the goodness values — and with them
// selection — are bitwise identical.
func (e *Engine) cellGoodness(id netlist.CellID) float64 {
	nw := len(e.gainW)
	var accC, accO [maxObjectives]float64
	if nw > 0 {
		if e.inc != nil {
			excl := e.inc.CellExcl(id)
			attach := e.pinAttach[e.inc.PinIndex(id):]
			for i, ref := range e.inc.CellPins(id) {
				n := ref.Net
				l := e.lengths[n]
				opt := excl[i] + float64(attach[i])/2
				if opt > l {
					opt = l // clamp: O_i may not exceed the achieved cost
				}
				for j := 0; j < nw; j++ {
					w := e.gainW[j][n]
					accC[j] += w * l
					accO[j] += w * opt
				}
			}
		} else {
			e.netsBuf = e.prob.Ckt.CellNets(id, e.netsBuf[:0])
			for _, n := range e.netsBuf {
				l := e.lengths[n]
				excl := e.ev.NetLengthExcluding(n, id, e.place)
				opt := excl + e.minAttach(n, id)
				if opt > l {
					opt = l // clamp: O_i may not exceed the achieved cost
				}
				for j := 0; j < nw; j++ {
					w := e.gainW[j][n]
					accC[j] += w * l
					accO[j] += w * opt
				}
			}
		}
	}

	goods := e.goodsBuf[:0]
	for _, g := range e.gains {
		if g.scorer != nil {
			goods = append(goods, g.scorer.CellScore(id))
		} else {
			goods = append(goods, ratio01(accO[g.wIdx], accC[g.wIdx]))
		}
	}
	e.goodsBuf = goods
	return e.prob.OWA.Aggregate(goods...)
}

// minAttach returns the minimal center-to-center span cell id needs to
// reach the closest other cell of the net: half its own width plus half
// the narrowest other pin's width (pads count as width 0 plus clearance,
// already in the net lower bound; here they contribute 0).
func (e *Engine) minAttach(n netlist.NetID, id netlist.CellID) float64 {
	return float64(e.attachSum(n, id)) / 2
}

// attachSum returns twice minAttach: the cell's width plus the narrowest
// other pin's width, or 0 when no other cell is on the net. Served from the
// problem's static attach tables in O(1): widths never change, so the only
// per-call question is whether the excluded cell is the one holding the
// net-wide minimum.
func (e *Engine) attachSum(n netlist.NetID, id netlist.CellID) int32 {
	p := e.prob
	w := p.attachW1[n]
	if p.attachC1[n] == id {
		w = p.attachW2[n]
	}
	if w < 0 {
		return 0
	}
	return int32(p.Ckt.Cells[id].Width) + w
}

func ratio01(o, c float64) float64 {
	if c <= 0 {
		return 1
	}
	r := o / c
	if r > 1 {
		return 1
	}
	if r < 0 {
		return 0
	}
	return r
}

// selectCells runs the Selection operator of Figure 1 over the domain:
// cell i joins S when Random > min(g_i + B, 1). The domain is iterated in
// sorted cell order so that the random stream is reproducible.
func (e *Engine) selectCells() []netlist.CellID {
	e.selected = e.selected[:0]
	bias := e.prob.Cfg.Bias
	for _, id := range e.domain {
		threshold := e.goodness[id] + bias
		if threshold > 1 {
			threshold = 1
		}
		if e.rnd.Float64() > threshold {
			e.selected = append(e.selected, id)
		}
	}
	// Sort the elements of S (Figure 1). The classic order is worst
	// goodness first; alternative orders diversify Type III threads.
	// slices.SortFunc avoids the reflection-based sort.Slice in this
	// per-iteration hot path; every comparator is a total order (ties break
	// on the cell id), so the unstable sort is still deterministic.
	cmp := func(a, b netlist.CellID) int {
		if e.goodness[a] != e.goodness[b] {
			if e.goodness[a] < e.goodness[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	}
	switch e.allocOrder {
	case BestFirst:
		cmp = func(a, b netlist.CellID) int {
			if e.goodness[a] != e.goodness[b] {
				if e.goodness[a] > e.goodness[b] {
					return -1
				}
				return 1
			}
			return int(a - b)
		}
	case WidestFirst:
		ckt := e.prob.Ckt
		cmp = func(a, b netlist.CellID) int {
			if ckt.Cells[a].Width != ckt.Cells[b].Width {
				return ckt.Cells[b].Width - ckt.Cells[a].Width
			}
			return int(a - b)
		}
	}
	slices.SortFunc(e.selected, cmp)
	return e.selected
}

// allocate runs the sorted-individual-best-fit Allocation: the selected
// cells are removed (their slots become the vacancy pool) and each cell, in
// sorted order, takes the vacancy minimizing its trial cost. The trial cost
// is the sum of the cell's net lengths with the cell at the vacancy,
// weighted per net by the active objectives (1 for wirelength, the
// switching activity for power, the timing criticality for delay), times a
// penalty when the move would violate the width constraint.
//
// With the incremental engine active, the cell's pins are lifted out of the
// cached multisets (RemoveCell) so every vacancy is scored in O(log p) per
// net through the row-sharded vacancy buckets (wire.ScanBestRows): the
// vacancy pool is bucketed per row and x-sorted once per pass, a commit
// shifts the rest of its row's free vacancies left, and each cell's scan
// enters only the rows that hold a free vacancy and fit its width,
// best-first from its median anchor, cutting dominated regions wholesale.
func (e *Engine) allocate(sel []netlist.CellID) {
	if len(sel) == 0 {
		return
	}
	ckt := e.prob.Ckt
	cfg := &e.prob.Cfg

	// Capture vacancies and prospective row widths.
	tCapture := time.Now()
	n := len(sel)
	numRows := e.place.NumRows()
	e.vacRef = resizeRefs(e.vacRef, n)
	e.vacs = resizeVacs(e.vacs, n)
	e.vacUsed = resizeBool(e.vacUsed, n)
	if cap(e.rowW) < numRows {
		e.rowW = make([]int, numRows)
	}
	e.rowW = e.rowW[:numRows]
	for r := range e.rowW {
		e.rowW[r] = e.place.RowWidth(r)
	}
	for i, id := range sel {
		x, y := e.place.Coord(id)
		ref := e.place.RemoveToHole(id)
		e.vacRef[i] = ref
		e.vacs[i] = wire.Vacancy{X: x, Y: y, Row: ref.Row}
		e.vacUsed[i] = false
		e.rowW[ref.Row] -= ckt.Cells[id].Width
	}

	avg := e.place.AvgRowWidth()
	limit := (1 + cfg.Alpha) * avg

	useInc := e.inc != nil && e.inc.Built()
	if useInc {
		e.buckets.Build(e.vacs, numRows)
		if len(e.rowY) != numRows {
			e.rowY = make([]float64, numRows)
			for r := range e.rowY {
				e.rowY[r] = layout.RowY(r)
			}
		}
	}

	// Sub-phase stamps are offsets from tCapture: time.Since reads only the
	// monotonic clock, where time.Now reads the wall clock as well. mark
	// carries the previous cell's end stamp into the next cell's prep
	// window, so the loop costs three clock reads per cell instead of four.
	var prepD, scanD, commitD time.Duration
	mark := time.Since(tCapture)
	prepD = mark
	for own, id := range sel {
		w := ckt.Cells[id].Width
		e.prepTrial(id, useInc)
		// The scan walks only the rows that hold a free vacancy and fit
		// the cell's width; feasible counts their free vacancies, the
		// candidates the scan's statistics account for.
		feasible := 0
		if useInc {
			e.scanRows = e.scanRows[:0]
			for r, rw := range e.rowW {
				if live := e.buckets.RowLive(r); live != 0 && float64(rw+w) <= limit {
					e.scanRows = append(e.scanRows, r)
					feasible += live
				}
			}
		}
		t1 := time.Since(tCapture)
		// First pass: best width-feasible vacancy. The width bound is a
		// hard constraint (Section 2), so infeasible vacancies are only
		// considered in the fallback pass, by smallest violation.
		best := -1
		if useInc {
			// Bounded scoring: a vacancy bails out once its partial cost
			// reaches the best so far — the winner is provably unchanged.
			// Seeding the bound with the cell's own vacated slot (index
			// `own`: vacancies were captured in selection order), when
			// still free and feasible, makes most other vacancies bail on
			// their first net; nextafter keeps equal-scoring earlier
			// vacancies admissible, so the serial first-minimum wins.
			best, _ = e.trials.ScanBestRows(&e.buckets, e.scanRows, feasible,
				e.seedBound(own, w, limit), &e.scanStats)
		} else {
			bestScore := 0.0
			for v := 0; v < n; v++ {
				if e.vacUsed[v] || float64(e.rowW[e.vacs[v].Row]+w) > limit {
					continue
				}
				score := e.trialCost(id, e.vacs[v].X, e.vacs[v].Y)
				if best < 0 || score < bestScore {
					best, bestScore = v, score
				}
			}
		}
		if best < 0 {
			bestViol := 0.0
			for v := 0; v < n; v++ {
				if e.vacUsed[v] {
					continue
				}
				viol := float64(e.rowW[e.vacs[v].Row]+w) - limit
				if best < 0 || viol < bestViol {
					best, bestViol = v, viol
				}
			}
		}
		t2 := time.Since(tCapture)
		e.place.FillHole(e.vacRef[best], id)
		e.place.SetCoordHint(id, e.vacs[best].X, e.vacs[best].Y)
		if useInc {
			e.inc.PlaceCell(id, e.vacs[best].X, e.vacs[best].Y)
			e.buckets.Commit(int32(best))
		}
		e.vacUsed[best] = true
		e.rowW[e.vacs[best].Row] += w
		t3 := time.Since(tCapture)
		prepD += t1 - mark
		scanD += t2 - t1
		commitD += t3 - t2
		mark = t3
	}
	e.flushScanStats()
	e.place.Recompute()
	commitD += time.Since(tCapture) - mark
	e.tel.AllocPrepNs += uint64(prepD)
	e.tel.AllocScanNs += uint64(scanD)
	e.tel.AllocCommitNs += uint64(commitD)
}

// flushScanStats folds the vacancy-scan accumulator into the run snapshot
// once per allocation pass.
func (e *Engine) flushScanStats() {
	agg := e.scanStats
	e.scanStats = wire.ScanStats{}
	if agg.Vacancies == 0 {
		return
	}
	e.tel.ScanVacancies += agg.Vacancies
	e.tel.ScanPrunedBBox += agg.PrunedBBox
	e.tel.ScanPrunedSuffix += agg.PrunedSuffix
	e.tel.ScanBailedExact += agg.BailedExact
	e.tel.ScanScored += agg.Scored
	e.tel.ScanSkippedBucket += agg.SkippedBucket
	e.tel.ScanRowsVisited += agg.RowsVisited
}

// prepTrial stages the per-cell trial state: the cell's incident nets with
// their objective weights (hoisted out of the per-vacancy loop — they do
// not depend on the candidate position), and, in incremental mode, lifts
// the cell's pins out of the cached multisets so trials need no exclusion.
// The lift is seldom spent on a cell that stays put: with seed 2006, 10–12%
// of s3330's allocated cells win their own vacated slot, and 2–4% of a
// generated 20k-cell circuit's. Each active objective contributes its
// per-net weight: the weight table for weighted objectives (1 for
// wirelength, the switching activity for power), NetScore for scorers (the
// timing criticality for delay).
func (e *Engine) prepTrial(id netlist.CellID, useInc bool) {
	e.netsBuf = e.prob.Ckt.CellNets(id, e.netsBuf[:0])
	e.trialW = e.trialW[:0]
	for _, n := range e.netsBuf {
		w := 0.0
		for _, g := range e.gains {
			if g.scorer != nil {
				w += g.scorer.NetScore(n)
			} else {
				w += e.gainW[g.wIdx][n]
			}
		}
		e.trialW = append(e.trialW, w)
	}
	if useInc {
		e.inc.RemoveCell(id)
	}
	e.orderTrials(id, useInc)
	if useInc {
		// Vacancy candidates sit on row centerlines; e.rowY holds
		// layout.RowY per row, which reproduces Recompute's centerline
		// expression bit for bit. PrepareScan derives the x envelope and
		// the row the bucketed scan starts from — O(nets·log nets + log
		// rows); the scan computes each row's bound and y halves as it
		// enters the row. Not negligible: trial preparation as a whole
		// measured 29–35% of allocation time (the scan 52–61%) in serial
		// s1196 and s3330 runs, wp and wpd, 150 iterations.
		e.inc.CompileTrials(&e.trials, e.netsBuf, e.trialW)
		e.trials.PrepareScan(e.rowY)
	}
}

// orderTrials sorts the cell's nets by descending weighted remaining-pin
// half-perimeter — span times the net's aggregated objective weight, which
// in wpd mode embeds the cached timing criticality — so the bounded
// vacancy scan meets the dominant weighted contributions first and bails
// as early as possible (ties by ascending net id). The unweighted span
// orders wp scans well, but under delay weighting a short critical net
// can dominate the trial cost; weighting the key is what lets the wpd
// scan's suffix bounds bite like the wp scan's. Both evaluation modes
// order by the same (value-equal) keys — the spans are exact min/max
// arithmetic and the weights are computed identically — so the trial-cost
// accumulation, and with it the search trajectory, stays bitwise identical
// between them.
func (e *Engine) orderTrials(id netlist.CellID, useInc bool) {
	n := len(e.netsBuf)
	if n < 2 {
		return
	}
	e.trialKey = resizeF64(e.trialKey, n)
	for i, nid := range e.netsBuf {
		if useInc {
			e.trialKey[i] = e.inc.StoredSpan(nid) * e.trialW[i]
		} else {
			e.trialKey[i] = e.remainingSpan(nid, id) * e.trialW[i]
		}
	}
	for i := 1; i < n; i++ {
		k, nid, w := e.trialKey[i], e.netsBuf[i], e.trialW[i]
		j := i - 1
		for j >= 0 && (e.trialKey[j] < k || (e.trialKey[j] == k && e.netsBuf[j] > nid)) {
			e.trialKey[j+1], e.netsBuf[j+1], e.trialW[j+1] = e.trialKey[j], e.netsBuf[j], e.trialW[j]
			j--
		}
		e.trialKey[j+1], e.netsBuf[j+1], e.trialW[j+1] = k, nid, w
	}
}

// remainingSpan is the reference mode's ordering key: the half-perimeter
// of the net's pins excluding the trialled cell, read from the placement —
// exactly the span the incremental multiset holds after RemoveCell.
func (e *Engine) remainingSpan(n netlist.NetID, exclude netlist.CellID) float64 {
	net := e.prob.Ckt.Net(n)
	first := true
	var minX, maxX, minY, maxY float64
	visit := func(id netlist.CellID) {
		if id == exclude || id == netlist.NoCell {
			return
		}
		x, y := e.place.Coord(id)
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
	if first {
		return 0
	}
	return (maxX - minX) + (maxY - minY)
}

// seedBound returns the initial scan bound for the prepared cell: one ulp
// above its own vacated slot's trial score when that slot is still free
// and its row takes the cell's width w within limit, +Inf otherwise.
// Scores strictly below the bound are scanned normally, so the first
// global minimum still wins — the seed only lets hopeless vacancies bail
// earlier. The seed slot must be feasible:
// bounding by an infeasible slot could prune every feasible vacancy and
// misroute the cell into the violation fallback.
func (e *Engine) seedBound(own, w int, limit float64) float64 {
	if e.vacUsed[own] || float64(e.rowW[e.vacs[own].Row]+w) > limit {
		return math.Inf(1)
	}
	s := e.trials.Score(e.vacs[own].X, e.vacs[own].Y)
	return math.Nextafter(s, math.Inf(1))
}

// trialCost scores a candidate location for the cell prepared by prepTrial
// (lower is better) through the from-scratch evaluator — the reference
// mode's scorer. The incremental path scores through e.trials instead;
// both produce bitwise-identical values.
func (e *Engine) trialCost(id netlist.CellID, x, y float64) float64 {
	cost := 0.0
	for i, n := range e.netsBuf {
		cost += e.ev.NetLengthWithCellAt(n, id, x, y, e.place) * e.trialW[i]
	}
	return cost
}

// Step executes one full SimE iteration (Evaluation, Selection, Allocation)
// and returns its statistics.
func (e *Engine) Step() IterStats {
	t0 := time.Now()
	if e.inc != nil {
		// Declare the goodness request up front, so the evaluation's net
		// visits compute the domain's exclusions. A Type II rank's domain
		// changes every iteration.
		e.inc.Want(e.domain)
	}
	e.evaluateCosts()
	e.goodsOut = e.ComputeGoodness(e.domain, e.goodsOut)
	e.tel.EvalNs += uint64(time.Since(t0))
	return e.SelectAndAllocate()
}

// SelectAndAllocate runs the Selection and Allocation operators on the
// already-evaluated solution. The Type I master calls this directly after
// installing the goodness values gathered from the slaves; Step uses it for
// the serial path, so both follow the identical trajectory.
func (e *Engine) SelectAndAllocate() IterStats {
	t1 := time.Now()
	sel := e.selectCells()
	t2 := time.Now()
	e.tel.SelectNs += uint64(t2.Sub(t1))

	stats := e.currentStats(len(sel))
	e.allocate(sel)
	e.tel.AllocNs += uint64(time.Since(t2))

	e.iter++
	e.tel.Iterations++
	e.publish()
	return stats
}

func (e *Engine) currentStats(selected int) IterStats {
	sum := 0.0
	for _, id := range e.domain {
		sum += e.goodness[id]
	}
	avg := 0.0
	if len(e.domain) > 0 {
		avg = sum / float64(len(e.domain))
	}
	return IterStats{
		Iter:     e.iter,
		Mu:       e.mu,
		Costs:    e.costs,
		Selected: selected,
		AvgGood:  avg,
		WidthOK:  e.place.WidthOK(e.prob.Cfg.Alpha),
	}
}

// Run executes the SimE main loop until MaxIters or the target quality is
// reached, then evaluates the final placement and returns the result.
func (e *Engine) Run() *Result { return e.RunContext(context.Background(), nil) }

// RunContext is Run with cooperative cancellation and per-iteration
// progress reporting. The context is checked between iterations: once it is
// cancelled the loop stops before starting another iteration and the
// best-so-far result is returned (inspect ctx.Err() for the reason).
// progress, when non-nil, is invoked after every completed iteration with
// that iteration's statistics. The run executes on the calling goroutine;
// the engine starts no goroutines of its own.
func (e *Engine) RunContext(ctx context.Context, progress Progress) *Result {
	cfg := &e.prob.Cfg
	for e.iter < cfg.MaxIters {
		if ctx.Err() != nil {
			break
		}
		st := e.Step()
		if progress != nil {
			progress(st)
		}
		if cfg.TargetMu > 0 && e.bestMu >= cfg.TargetMu {
			break
		}
	}
	// The last allocation has not been evaluated yet.
	t0 := time.Now()
	e.evaluateCosts()
	e.tel.EvalNs += uint64(time.Since(t0))
	e.publish()
	return e.result()
}

func (e *Engine) result() *Result {
	return &Result{
		Best:      e.best,
		BestMu:    e.bestMu,
		BestCosts: e.bestCosts,
		BestIter:  e.bestIter,
		Iters:     e.iter,
		Profile:   e.Profile(),
		MuTrace:   e.MuTrace(),
		Telemetry: e.Telemetry(),
	}
}

// publish flushes the snapshot's progress to the process-wide registry.
func (e *Engine) publish() {
	cur := e.Telemetry()
	var peak, overflow float64
	if e.congGrid != nil {
		peak, overflow = e.congGrid.Peak(), e.congGrid.Overflow()
	}
	cur.Publish(&e.pub, e.inc == nil, peak, overflow)
	e.pub = cur
}

// Telemetry returns the engine's per-run counter snapshot, with the STA
// and congestion-grid work totals folded in at read time (they accumulate
// inside their own layers).
func (e *Engine) Telemetry() telemetry.EngineSnapshot {
	t := e.tel
	if sta := e.pipe.Delay(); sta != nil {
		t.TimingRebuilds = sta.Rebuilds()
	}
	if e.congGrid != nil {
		t.CongestBinUpdates, t.CongestRebuilds = e.congGrid.Stats()
	}
	return t
}

// Result snapshots the current run state without running further.
func (e *Engine) Result() *Result { return e.result() }

// Profile returns the accumulated operator timings, the phase times of
// the run snapshot.
func (e *Engine) Profile() Profile {
	return Profile{time.Duration(e.tel.EvalNs), time.Duration(e.tel.SelectNs), time.Duration(e.tel.AllocNs)}
}

func resizeRefs(s []layout.SlotRef, n int) []layout.SlotRef {
	if cap(s) < n {
		return make([]layout.SlotRef, n)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeVacs(s []wire.Vacancy, n int) []wire.Vacancy {
	if cap(s) < n {
		return make([]wire.Vacancy, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Package metaheur implements the comparison metaheuristics the paper's
// Section 7 references — Simulated Annealing, Tabu Search, and a Genetic
// Algorithm — on the same placement substrates as SimE, in serial and
// parallel forms:
//
//   - SA parallelizes as asynchronous multiple Markov chains (the paper's
//     reference [1] and [11]) through a central best store;
//   - GA parallelizes as an island model with ring migration ([8]);
//   - TS parallelizes as Type I candidate-list division ([6]), which the
//     authors report gave TS its best speedups.
//
// All three optimize the two-objective (wirelength + power) problem with
// the same μ(s) quality measure as SimE, so results are directly
// comparable with the SimE tables.
package metaheur

import (
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/cost"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

// Result reports a metaheuristic run in the same terms as the SimE engine.
type Result struct {
	BestMu    float64
	BestCosts fuzzy.Costs
	Best      *layout.Placement
	Moves     int // moves / iterations / generations executed
	Runtime   time.Duration
}

// evaluator computes μ(s) and move deltas for the two-objective problem.
// Swap deltas use the same coordinate approximation as SimE's allocation
// operator (cells score at the swapped slot's last-recomputed coordinates);
// a periodic full recompute kills the accumulated drift.
//
// Move deltas go through a wire.Incremental bound to the working
// placement: trial lengths are read from the cached net geometry in
// O(log p) per net instead of re-collecting every pin. The mirror changes
// in two ways only: binding a new placement rebuilds it, and per-pin
// edits (MoveCell) carry every move of the bound one — an accepted swap's
// two cells, and the cells a Recompute shifted. The objective totals live
// in the same cost.Pipeline the SimE engine runs — wire and power fold a
// swap's nets into their summation trees in O(dirty·log n), and a full
// recompute lands on the identical bits — so the μ values reported here
// are exactly the engine's. Fitness-only users (the GA evaluates fresh
// placements and never asks for deltas) keep the plain from-scratch
// length path (full) and never pay for the geometry cache.
// core.Config.DisableIncremental forces the from-scratch paths here too —
// the trajectories are bitwise identical either way (tested), so the
// switch isolates the caching machinery.
type evaluator struct {
	prob    *core.Problem
	ev      *wire.Evaluator
	inc     *wire.Incremental
	boundTo *layout.Placement // placement the incremental state mirrors
	lengths []float64
	pipe    *cost.Pipeline
	nets    []netlist.NetID // scratch
}

func newEvaluator(prob *core.Problem) *evaluator {
	return &evaluator{
		prob: prob,
		ev:   wire.NewEvaluator(prob.Ckt),
		pipe: cost.NewPipeline(fuzzy.WirePower, prob.Ckt, prob.Acts, prob.Lv, prob.Cfg.TimingModel),
	}
}

// scratchMode reports whether the from-scratch reference mode is forced —
// the same escape hatch the SimE engine honors. Both modes compute
// bitwise-identical deltas (the trial formulas are canonical), so the
// switch isolates the caching machinery, not the math.
func (e *evaluator) scratchMode() bool { return e.prob.Cfg.DisableIncremental }

// full recomputes the totals for the given placement from scratch, for
// fitness-only users (the GA); it leaves the incremental state alone.
func (e *evaluator) full(place *layout.Placement) {
	if place.Dirty() {
		place.Recompute()
	}
	e.lengths = e.ev.Lengths(place, e.lengths)
	e.pipe.Full(e.lengths)
}

// fullBound is full for move-generating users (SA/TS): it brings the
// incremental state up to the placement and reads the lengths from it.
// A newly bound placement (an adoption, a decoded broadcast) costs one
// net-length pass, inside Rebuild. On the bound one a recompute after a
// few swaps shifts only the cells behind them in their rows: those are
// edited in pin by pin (MoveCell), and only their nets are read back
// through NetLength, which relengths each, and folded.
func (e *evaluator) fullBound(place *layout.Placement) {
	if e.scratchMode() {
		e.full(place)
		return
	}
	if place.Dirty() {
		place.Recompute()
	}
	if e.bind(place) {
		e.lengths = e.inc.Lengths(e.lengths)
		e.pipe.Full(e.lengths)
		return
	}
	e.nets = e.nets[:0]
	for _, id := range e.prob.Ckt.Movable() {
		x, y := place.Coord(id)
		if cx, cy := e.inc.Coord(id); cx != x || cy != y {
			e.inc.MoveCell(id, x, y)
			for _, ref := range e.inc.CellPins(id) {
				e.nets = append(e.nets, ref.Net)
			}
		}
	}
	// Every other net's length is current: applySwap read its nets back.
	for _, n := range e.nets {
		e.lengths[n] = e.inc.NetLength(n)
	}
	e.pipe.ApplyDirty(e.nets, e.lengths) // a repeated net folds as a no-op
}

// bind points the incremental state at the placement, rebuilding it if it
// mirrors a different one; it reports whether a rebuild ran. A bound
// placement's coordinates change only through applySwap (which edits the
// mirror) and Recompute (which the callers follow with fullBound), so the
// mirror is current.
func (e *evaluator) bind(place *layout.Placement) (rebuilt bool) {
	if e.boundTo == place {
		return false
	}
	if e.inc == nil {
		e.inc = wire.NewIncremental(e.prob.Ckt)
	}
	e.inc.Rebuild(place)
	e.boundTo = place
	return true
}

// mu returns μ(s) for the current totals.
func (e *evaluator) mu(place *layout.Placement) float64 {
	ratios := fuzzy.Ratio(e.pipe.Costs(), e.prob.Lower)
	return fuzzy.Eval(fuzzy.WirePower, ratios, e.prob.Cfg.Goals, e.prob.OWA,
		place.WidthViolation(e.prob.Cfg.Alpha))
}

// costs returns the current raw totals.
func (e *evaluator) costs() fuzzy.Costs { return e.pipe.Costs() }

// energy is the scalar the local-search heuristics minimize: the sum of
// cost ratios against the μ normalization bounds (monotone with 1-μ for
// equal memberships, but smooth everywhere).
func (e *evaluator) energy() float64 {
	c := e.pipe.Costs()
	return c.Wire/e.prob.Lower.Wire + c.Power/e.prob.Lower.Power
}

// swapDelta computes the exact energy change of swapping cells a and b at
// the current (possibly hinted) coordinates, without mutating the
// placement. Nets containing both cells are evaluated with both endpoints
// moved simultaneously. Both cells are lifted out of the cached multisets
// for the duration, so each net's trial is a pure candidate-composition
// over the remaining pins — bitwise equal to the Evaluator's canonical
// NetLengthWithCellAt / NetLengthWithCellsAt.
func (e *evaluator) swapDelta(place *layout.Placement, a, b netlist.CellID) float64 {
	ax, ay := place.Coord(a)
	bx, by := place.Coord(b)
	e.nets = e.nets[:0]
	e.nets = e.prob.Ckt.CellNets(a, e.nets)
	e.nets = e.prob.Ckt.CellNets(b, e.nets)

	cached := !e.scratchMode()
	if cached {
		e.bind(place)
		e.inc.RemoveCell(a)
		e.inc.RemoveCell(b)
	}
	var dWire, dPow float64
	for _, n := range dedupNets(e.nets) {
		old := e.lengths[n]
		hasA, hasB := e.netHas(n, a), e.netHas(n, b)
		var nu float64
		switch {
		case hasA && hasB:
			if cached {
				nu = e.inc.TrialNetAt2(n, bx, by, ax, ay)
			} else {
				nu = e.ev.NetLengthWithCellsAt(n, a, bx, by, b, ax, ay, place)
			}
		case hasA:
			if cached {
				nu = e.inc.TrialNetAt(n, bx, by)
			} else {
				nu = e.ev.NetLengthWithCellAt(n, a, bx, by, place)
			}
		default:
			if cached {
				nu = e.inc.TrialNetAt(n, ax, ay)
			} else {
				nu = e.ev.NetLengthWithCellAt(n, b, ax, ay, place)
			}
		}
		dWire += nu - old
		dPow += (nu - old) * e.prob.Acts[n]
	}
	if cached {
		e.inc.RestoreCell(b)
		e.inc.RestoreCell(a)
	}
	return dWire/e.prob.Lower.Wire + dPow/e.prob.Lower.Power
}

func (e *evaluator) netHas(n netlist.NetID, id netlist.CellID) bool {
	net := e.prob.Ckt.Net(n)
	if net.Driver == id {
		return true
	}
	for _, s := range net.Sinks {
		if s == id {
			return true
		}
	}
	return false
}

// applySwap commits a swap and folds the affected nets into the objective
// pipeline — the O(dirty·log n) path SA and TS ride on every accepted
// move.
func (e *evaluator) applySwap(place *layout.Placement, a, b netlist.CellID) {
	scratch := e.scratchMode()
	if !scratch {
		e.bind(place)
	}
	ax, ay := place.Coord(a)
	bx, by := place.Coord(b)
	place.SwapCells(a, b)
	place.SetCoordHint(a, bx, by)
	place.SetCoordHint(b, ax, ay)
	if !scratch {
		e.inc.MoveCell(a, bx, by)
		e.inc.MoveCell(b, ax, ay)
	}
	// Re-estimate the affected nets' lengths at the hinted coordinates.
	e.nets = e.nets[:0]
	e.nets = e.prob.Ckt.CellNets(a, e.nets)
	e.nets = e.prob.Ckt.CellNets(b, e.nets)
	touched := dedupNets(e.nets)
	for _, n := range touched {
		if scratch {
			e.lengths[n] = e.ev.NetLength(n, place)
		} else {
			e.lengths[n] = e.inc.NetLength(n)
		}
	}
	e.pipe.ApplyDirty(touched, e.lengths)
}

func dedupNets(nets []netlist.NetID) []netlist.NetID {
	out := nets[:0]
	for i, n := range nets {
		dup := false
		for _, m := range nets[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// randomPair picks two distinct movable cells.
func randomPair(movable []netlist.CellID, rnd *rng.R) (netlist.CellID, netlist.CellID) {
	a := movable[rnd.Intn(len(movable))]
	b := movable[rnd.Intn(len(movable))]
	for b == a {
		b = movable[rnd.Intn(len(movable))]
	}
	return a, b
}

// requireWirePower rejects configurations the local-search heuristics do
// not support (they optimize the paper's two-objective problem).
func requireWirePower(prob *core.Problem) error {
	if prob.Cfg.Objectives != fuzzy.WirePower {
		return fmt.Errorf("metaheur: only the wire+power objective set is supported, got %s",
			prob.Cfg.Objectives)
	}
	return nil
}

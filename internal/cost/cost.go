// Package cost is the pluggable objective pipeline behind the SimE
// engine's multi-objective evaluation. Each cost term of the fuzzy
// aggregation — wirelength, power, delay, congestion — is an Objective that
// recomputes its value from the full array of committed net lengths
// (Full). The engine runs Full for every objective on every evaluation:
// a SimE iteration re-places enough cells to dirty far more nets than an
// incremental fold could profitably skip.
//
// The weighted-length objectives (wirelength, power) accumulate through a
// fixed-shape pairwise summation tree. Every partial sum is a deterministic
// function of the leaves, so replacing a few leaves and re-propagating
// their root paths yields the same bits as a full rebuild. Pipeline.ApplyDirty
// exposes that fold for callers that move a handful of cells at a time —
// the simulated-annealing and tabu-search swaps of internal/metaheur.
//
// Two optional capability interfaces tell the engine how an objective
// contributes to per-cell goodness and allocation trial weighting:
// LengthWeighted (wirelength, power: a per-net weight table) and
// CellScored (delay, congestion: a direct per-cell score plus a per-net
// trial weight). A new objective plugs in by implementing Objective plus
// whichever capability fits, with no engine surgery.
package cost

import (
	"fmt"
	"time"

	"simevo/internal/fuzzy"
	"simevo/internal/netlist"
	"simevo/internal/telemetry"
	"simevo/internal/timing"
)

// Objective is one cost term of the fuzzy aggregation.
type Objective interface {
	// Bit identifies the objective in the fuzzy aggregation.
	Bit() fuzzy.Objectives
	// Name is the stable identifier used in phase reports.
	Name() string
	// Full recomputes the cost from every committed net length.
	Full(lengths []float64) float64
}

// LengthWeighted marks objectives of the form Σ_n w[n]·length[n]. The
// engine folds the weight table into per-cell goodness gain terms and
// allocation trial weights.
type LengthWeighted interface {
	Weights() []float64
}

// CellScored marks objectives whose goodness contribution is a direct
// per-cell score (delay: 1−criticality) rather than a weighted-length
// ratio; NetScore is the objective's allocation trial weight for a net.
type CellScored interface {
	CellScore(id netlist.CellID) float64
	NetScore(n netlist.NetID) float64
}

// weightedSum is a Σ w[n]·length[n] objective over a deterministic
// pairwise summation tree: leaf n holds w[n]·length[n], every internal
// node the rounded sum of its two children. Replacing a leaf and
// re-propagating the log-depth path to the root reproduces exactly the
// bits a bottom-up rebuild would, so applyDirty ≡ Full.
type weightedSum struct {
	bit  fuzzy.Objectives
	name string
	w    []float64
	tree sumTree
}

func (o *weightedSum) Bit() fuzzy.Objectives { return o.bit }
func (o *weightedSum) Name() string          { return o.name }
func (o *weightedSum) Weights() []float64    { return o.w }

func (o *weightedSum) Full(lengths []float64) float64 {
	o.tree.rebuild(len(lengths), func(i int) float64 { return o.w[i] * lengths[i] })
	return o.tree.value()
}

func (o *weightedSum) applyDirty(dirty []netlist.NetID, lengths []float64) float64 {
	// Past a quarter of the leaves the O(dirty·log n) path walks more
	// nodes than the linear recombine; fall back to Full, which produces
	// the identical bits by construction.
	if len(dirty)*4 >= len(lengths) {
		return o.Full(lengths)
	}
	for _, n := range dirty {
		o.tree.set(int(n), o.w[n]*lengths[n])
	}
	return o.tree.value()
}

// delayObjective adapts the STA to the Objective interface.
type delayObjective struct {
	sta *timing.STA
}

func (o *delayObjective) Bit() fuzzy.Objectives { return fuzzy.Delay }
func (o *delayObjective) Name() string          { return "delay" }

func (o *delayObjective) Full(lengths []float64) float64 {
	return o.sta.Rebuild(lengths)
}

func (o *delayObjective) CellScore(id netlist.CellID) float64 { return 1 - o.sta.Criticality(id) }
func (o *delayObjective) NetScore(n netlist.NetID) float64    { return o.sta.NetCriticality(n) }

// Sta exposes the underlying analyzer (nil-safe callers should check the
// pipeline's Delay accessor instead).
func (o *delayObjective) Sta() *timing.STA { return o.sta }

// Pipeline evaluates a set of objectives over one placement's committed
// net lengths, in the canonical wire → power → delay order the fuzzy
// aggregation and the goodness terms depend on. With EnableTiming it
// accumulates per-objective evaluation time for the benchmark phase
// reports; untimed pipelines (the metaheuristics fold objectives on
// every accepted move) skip the clock reads entirely.
type Pipeline struct {
	objs   []Objective
	phases []time.Duration
	timed  bool
	costs  fuzzy.Costs
}

// NewPipeline builds the objective set. acts is the per-net switching
// activity table (shared, not copied); lv and model parameterize the
// delay substrate and are only consulted when the set includes Delay.
// extras are externally constructed objectives (congestion's bin grid
// lives in internal/congest and is handed in by the engine); they are
// appended after the built-in terms so the canonical wire → power →
// delay → extras evaluation order holds.
func NewPipeline(set fuzzy.Objectives, ckt *netlist.Circuit, acts []float64, lv *netlist.Levels, model timing.Model, extras ...Objective) *Pipeline {
	p := &Pipeline{}
	nn := ckt.NumNets()
	if set.Has(fuzzy.Wire) {
		ones := make([]float64, nn)
		for i := range ones {
			ones[i] = 1
		}
		p.objs = append(p.objs, &weightedSum{bit: fuzzy.Wire, name: "wire", w: ones, tree: newSumTree(nn)})
	}
	if set.Has(fuzzy.Power) {
		p.objs = append(p.objs, &weightedSum{bit: fuzzy.Power, name: "power", w: acts, tree: newSumTree(nn)})
	}
	if set.Has(fuzzy.Delay) {
		p.objs = append(p.objs, &delayObjective{sta: timing.NewSTA(ckt, lv, model)})
	}
	p.objs = append(p.objs, extras...)
	p.phases = make([]time.Duration, len(p.objs))
	return p
}

// Objectives returns the pipeline's objectives in evaluation order.
func (p *Pipeline) Objectives() []Objective { return p.objs }

// Delay returns the STA behind the delay objective, or nil
// when the set does not include Delay.
func (p *Pipeline) Delay() *timing.STA {
	for _, o := range p.objs {
		if d, ok := o.(*delayObjective); ok {
			return d.Sta()
		}
	}
	return nil
}

// EnableTiming turns on per-objective phase accounting (Phases). Off by
// default: only pipelines whose phases somebody reads — the engine's,
// surfaced through Engine.CostPhases — should pay the per-evaluation clock
// reads.
func (p *Pipeline) EnableTiming() { p.timed = true }

// Full recomputes every objective from the full length array.
func (p *Pipeline) Full(lengths []float64) fuzzy.Costs {
	telemetry.CostFullEvals.Inc()
	for i, o := range p.objs {
		if p.timed {
			t0 := time.Now()
			p.setCost(o.Bit(), o.Full(lengths))
			p.phases[i] += time.Since(t0)
			continue
		}
		p.setCost(o.Bit(), o.Full(lengths))
	}
	return p.costs
}

// ApplyDirty folds a batch of re-estimated dirty nets into the summation
// trees of a wire/power pipeline — the per-move path of the SA and TS
// swaps, which touch a handful of nets out of thousands. The result is
// bitwise identical to Full over the same lengths. It panics when the
// pipeline holds an objective without a summation tree (delay,
// congestion), and its time is not counted in Phases.
func (p *Pipeline) ApplyDirty(dirty []netlist.NetID, lengths []float64) fuzzy.Costs {
	// Mirror weightedSum's n/4 crossover so the fallback count reflects
	// what the trees actually did.
	if len(dirty)*4 >= len(lengths) {
		telemetry.CostDirtyFallbackEvals.Inc()
	} else {
		telemetry.CostDirtyEvals.Inc()
	}
	for _, o := range p.objs {
		ws, ok := o.(*weightedSum)
		if !ok {
			panic("cost: ApplyDirty on a pipeline with the " + o.Name() + " objective")
		}
		p.setCost(o.Bit(), ws.applyDirty(dirty, lengths))
	}
	return p.costs
}

// Costs returns the objective values of the last evaluation.
func (p *Pipeline) Costs() fuzzy.Costs { return p.costs }

// Phases returns the accumulated per-objective evaluation time.
func (p *Pipeline) Phases() map[string]time.Duration {
	out := make(map[string]time.Duration, len(p.objs))
	for i, o := range p.objs {
		out[o.Name()] = p.phases[i]
	}
	return out
}

func (p *Pipeline) setCost(bit fuzzy.Objectives, v float64) {
	switch bit {
	case fuzzy.Wire:
		p.costs.Wire = v
	case fuzzy.Power:
		p.costs.Power = v
	case fuzzy.Delay:
		p.costs.Delay = v
	case fuzzy.Congest:
		p.costs.Congest = v
	default:
		panic(fmt.Sprintf("cost: objective bit %#x has no Costs field", uint8(bit)))
	}
}

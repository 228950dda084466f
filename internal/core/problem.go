package core

import (
	"fmt"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/power"
	"simevo/internal/rng"
)

// Problem bundles a circuit with the placement-independent data every SimE
// engine needs: switching activities, levelization, per-net and
// per-objective lower bounds, the canonical initial placement, and the
// validated configuration. In the paper's cluster each MPI process
// computes this once at startup; here the parallel strategies share one
// Problem across ranks, so it and its circuit are read-only once built.
type Problem struct {
	Ckt *netlist.Circuit
	// Cfg is the validated configuration. Seed, NumRows and
	// ClusteredStart fix the canonical start NewProblem builds and
	// evaluates, so they must not change afterwards; the search
	// parameters may.
	Cfg Config

	Lv *netlist.Levels
	// Acts are the per-net switching activities S_i, derived from one run
	// of the power probability fixpoint (a whole-circuit propagation,
	// computed once per problem) and shared by every engine, the
	// reference-cost evaluation, and the metaheuristics.
	Acts []float64
	// Ref holds the objective costs of the canonical initial placement;
	// Lower = Ref / goal factors normalizes the fuzzy memberships.
	Ref   fuzzy.Costs
	Lower fuzzy.Costs
	OWA   fuzzy.OWA

	// Per-net minimal-attachment tables: the smallest pin-cell width with
	// the (pin-order-first) cell achieving it, and the smallest width among
	// pins of any other cell (-1 when the net has pins of only one cell).
	// minAttach reads them in O(1); widths are static, so this is computed
	// once per problem instead of per (cell, net) per iteration.
	attachC1 []netlist.CellID
	attachW1 []int32
	attachW2 []int32

	// start is the canonical initial placement, built once from the
	// refStream generator and evaluated for Ref; startRnd is that
	// generator's state right after the build. Engines clone them and
	// never mutate the originals.
	start    *layout.Placement
	startRnd *rng.R
}

// NewProblem validates the configuration and precomputes the shared data.
func NewProblem(ckt *netlist.Circuit, cfg Config) (*Problem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lv, err := ckt.Levelize()
	if err != nil {
		return nil, err
	}
	probs, err := power.Probabilities(ckt, cfg.PowerConfig)
	if err != nil {
		return nil, err
	}
	p := &Problem{
		Ckt: ckt, Cfg: cfg, Lv: lv,
		Acts: power.FromProbabilities(probs),
		OWA:  fuzzy.OWA{Beta: cfg.Beta},
	}
	p.startRnd = rng.NewStream(cfg.Seed, refStream)
	p.start = initialPlacement(ckt, &cfg, p.startRnd)
	p.Ref = referenceCosts(ckt, &cfg, p.start, p.Lv, p.Acts)
	if p.Ref.Wire <= 0 || p.Ref.Power <= 0 {
		return nil, fmt.Errorf("core: degenerate reference costs %+v", p.Ref)
	}
	p.Lower = lowerBoundsFromReference(p.Ref, cfg.Goals)
	p.buildAttach()
	return p, nil
}

// buildAttach fills the per-net minimal-attachment tables. For each net it
// records the first pin (in driver-then-sinks order) holding the smallest
// cell width, plus the smallest width among pins whose cell differs from
// that one — exactly the two candidates minAttach needs: excluding cell id
// leaves w1 when id is not the minimal cell, w2 (the minimum over cells
// other than the minimal one, all of which differ from id) when it is.
func (p *Problem) buildAttach() {
	ckt := p.Ckt
	n := ckt.NumNets()
	p.attachC1 = make([]netlist.CellID, n)
	p.attachW1 = make([]int32, n)
	p.attachW2 = make([]int32, n)
	for i := 0; i < n; i++ {
		w1, w2 := int32(-1), int32(-1)
		c1 := netlist.NoCell
		consider := func(c netlist.CellID) {
			if c == netlist.NoCell {
				return
			}
			w := int32(ckt.Cells[c].Width)
			switch {
			case w1 < 0 || w < w1:
				if c != c1 {
					// The displaced minimum becomes a w2 candidate only if
					// it belongs to a different cell.
					if c1 != netlist.NoCell && (w2 < 0 || w1 < w2) {
						w2 = w1
					}
					c1 = c
				}
				w1 = w
			case c != c1 && (w2 < 0 || w < w2):
				w2 = w
			}
		}
		net := &ckt.Nets[i]
		consider(net.Driver)
		for _, s := range net.Sinks {
			consider(s)
		}
		p.attachC1[i], p.attachW1[i], p.attachW2[i] = c1, w1, w2
	}
}

// NewEngine creates an engine with a fresh random initial placement drawn
// from the problem seed combined with the given stream (rank) number.
// Stream refStream (0) is the canonical start: the engine gets a copy of
// the placement Ref was evaluated on and of the generator that built it,
// exactly as if it had built them itself.
func (p *Problem) NewEngine(stream uint64) *Engine {
	if stream == refStream {
		return p.EngineFrom(p.start.Clone(), p.startRnd.Clone())
	}
	rnd := rng.NewStream(p.Cfg.Seed, stream)
	place := initialPlacement(p.Ckt, &p.Cfg, rnd)
	return p.EngineFrom(place, rnd)
}

// EngineFromReference creates an engine that starts from the canonical
// initial placement (the one μ is normalized against) but draws its random
// decisions from the given stream. The paper's Type III experiments run
// every thread "using the same starting solution but with different
// randomization seeds" — this is that construction.
func (p *Problem) EngineFromReference(stream uint64) *Engine {
	return p.EngineFrom(p.start.Clone(), rng.NewStream(p.Cfg.Seed, stream))
}

// EngineFrom wraps an existing placement (takes ownership) with a SimE
// engine using the supplied generator.
func (p *Problem) EngineFrom(place *layout.Placement, rnd *rng.R) *Engine {
	e := &Engine{
		prob:  p,
		place: place,
		rnd:   rnd,
	}
	e.init()
	return e
}

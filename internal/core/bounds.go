package core

import (
	"simevo/internal/congest"
	"simevo/internal/cost"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

// refStream is the RNG stream of the canonical initial placement. The
// serial engine (and the master rank of every parallel strategy) uses the
// same stream, so all strategies are normalized against — and start from —
// the same solution, exactly as the paper's runs do ("All runs were
// performed using the same starting solution"). NewProblem builds that
// solution once and every engine on this stream starts from a copy.
const refStream = 0

// referenceCosts evaluates the objective costs of the canonical initial
// placement through the same cost pipeline the engines run, so the μ
// normalization and the per-iteration costs share one canonical
// definition of every objective. μ(s) memberships are then expressed as
// improvement over this reference: the per-objective lower bound is
// Ref_j / Goal_j, so membership is 0 at the initial cost and reaches 1
// when the cost has improved by the goal factor. This keeps μ comparable
// across serial and parallel runs (the paper reports parallel quality as
// a percentage of serial μ) and puts converged solutions in the 0.5-0.8
// band the paper's tables show. place is the problem's canonical start;
// the levelization and activity tables are its cached ones — they are
// placement-independent.
func referenceCosts(ckt *netlist.Circuit, cfg *Config, place *layout.Placement, lv *netlist.Levels, acts []float64) fuzzy.Costs {
	ev := wire.NewEvaluator(ckt)
	lengths := ev.Lengths(place, nil)

	// Wire and power reference costs are always needed (they normalize
	// the always-reported raw costs); delay and congestion only when
	// active. The congestion grid here uses the same static geometry the
	// engines build (congestSpec), sourced from the reference placement.
	var extras []cost.Objective
	if cfg.Objectives.Has(fuzzy.Congest) {
		extras = append(extras, congest.New(ckt, congestSpec(ckt, cfg), congest.PlacementSource{P: place}))
	}
	pipe := cost.NewPipeline(cfg.Objectives|fuzzy.WirePower, ckt, acts, lv, cfg.TimingModel, extras...)
	return pipe.Full(lengths)
}

// initialPlacement builds a run's starting placement: uniform-random by
// default, connectivity-clustered with Config.ClusteredStart. NewProblem
// builds the canonical start here once; NewEngine builds the starts of
// the other streams.
func initialPlacement(ckt *netlist.Circuit, cfg *Config, rnd *rng.R) *layout.Placement {
	if cfg.ClusteredStart {
		return layout.NewClustered(ckt, cfg.NumRows, rnd)
	}
	return layout.NewRandom(ckt, cfg.NumRows, rnd)
}

// congestSpec derives the congestion grid geometry for a run: the same
// row count the placements use and the configured bin-column count. A
// static function of circuit and config, so the reference evaluation and
// every engine of the run share one grid frame.
func congestSpec(ckt *netlist.Circuit, cfg *Config) congest.Spec {
	rows := cfg.NumRows
	if rows <= 0 {
		rows = layout.DefaultNumRows(ckt)
	}
	return congest.SpecFor(ckt, rows, cfg.CongestBins)
}

// lowerBoundsFromReference converts reference costs into the normalization
// bounds used by fuzzy.Ratio.
func lowerBoundsFromReference(ref fuzzy.Costs, goals fuzzy.Goals) fuzzy.Costs {
	div := func(c, g float64) float64 {
		if g <= 1 {
			return c
		}
		return c / g
	}
	return fuzzy.Costs{
		Wire:    div(ref.Wire, goals.Wire.Goal),
		Power:   div(ref.Power, goals.Power.Goal),
		Delay:   div(ref.Delay, goals.Delay.Goal),
		Congest: div(ref.Congest, goals.Congest.Goal),
	}
}

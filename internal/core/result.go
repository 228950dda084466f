package core

import (
	"fmt"
	"time"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/telemetry"
)

// Profile accumulates time spent in each SimE operator. The paper's
// Section 4 reports the shares for its serial implementation (allocation
// ~98%); `simevo-bench -table profile` regenerates that experiment.
type Profile struct {
	Eval   time.Duration // cost + goodness evaluation
	Select time.Duration
	Alloc  time.Duration
}

// Total returns the summed operator time.
func (p Profile) Total() time.Duration { return p.Eval + p.Select + p.Alloc }

// Shares returns the fraction of total time per operator.
func (p Profile) Shares() (eval, sel, alloc float64) {
	t := p.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(p.Eval) / float64(t),
		float64(p.Select) / float64(t),
		float64(p.Alloc) / float64(t)
}

// String renders the profile like the paper's Section 4 summary.
func (p Profile) String() string {
	e, s, a := p.Shares()
	return fmt.Sprintf("alloc %.1f%%, eval %.1f%%, select %.1f%% (total %v)",
		a*100, e*100, s*100, p.Total().Round(time.Millisecond))
}

// IterStats reports one iteration's outcome.
type IterStats struct {
	Iter     int
	Mu       float64     // μ(s) of the current solution
	Costs    fuzzy.Costs // raw objective costs
	Selected int         // |S| in this iteration
	AvgGood  float64     // mean goodness over the evaluated domain
	WidthOK  bool
}

// Progress receives per-iteration statistics while a run is executing.
// Callbacks are invoked synchronously from the running engine — for the
// parallel strategies that means from a cluster rank goroutine — so
// implementations must be fast and safe for concurrent use, and must not
// call back into the engine. The metaheuristics reuse the type, filling
// only Iter (moves / generations / iterations) and the best-μ fields.
type Progress func(IterStats)

// Result summarizes a Run.
type Result struct {
	Best      *layout.Placement
	BestMu    float64
	BestCosts fuzzy.Costs
	BestIter  int // iteration at which the best was found
	Iters     int // iterations executed
	Profile   Profile
	MuTrace   []float64 // μ(s) after every iteration

	// Telemetry is the run's counter snapshot — the same numbers the
	// process-wide /metrics endpoint aggregates, scoped to this engine.
	Telemetry telemetry.EngineSnapshot
}

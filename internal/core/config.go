// Package core implements the Simulated Evolution (SimE) metaheuristic for
// multiobjective standard-cell placement — the serial algorithm of the
// paper's Figure 1 and the engine shared by all three parallel strategies.
//
// One SimE iteration runs three operators over the current placement Φ:
//
//	Evaluation: per-cell goodness g_i = O_i / C_i in [0,1], where C_i is the
//	  cell's actual cost and O_i a lower-bound estimate of its optimal cost,
//	  aggregated over the active objectives (wirelength, power, delay).
//	Selection: each cell joins the selection set S with probability
//	  1 − min(g_i + B, 1); the bias B defaults to 0, the "biasless"
//	  selection of Sait-Khan 2003 [9].
//	Allocation: "sorted individual best fit" — S is sorted (worst goodness
//	  first), the selected cells are removed, and each is placed into the
//	  best remaining vacated slot by trial evaluation of its incident nets.
//
// Allocation dominates runtime (the paper's profiling reports ~98%), which
// is what the Type II strategy parallelizes.
package core

import (
	"fmt"

	"simevo/internal/fuzzy"
	"simevo/internal/power"
	"simevo/internal/timing"
)

// Config parameterizes a SimE run.
type Config struct {
	// Objectives selects the active cost terms. The paper evaluates
	// fuzzy.WirePower (Tables 1-2) and fuzzy.WirePowerDelay (Table 3).
	Objectives fuzzy.Objectives

	// Bias is the selection bias B of Figure 1. 0 (default) reproduces the
	// biasless selection function of [9]. Negative values select more
	// cells, positive fewer.
	Bias float64

	// MaxIters bounds the number of iterations of Run.
	MaxIters int

	// TargetMu terminates Run once the best solution quality reaches this
	// value (0 disables). Used for quality-normalized timing runs.
	TargetMu float64

	// Alpha is the width-constraint ratio: Width − w_avg ≤ Alpha · w_avg.
	Alpha float64

	// Beta is the OWA aggregation weight β (fuzzy AND strength).
	Beta float64

	// Goals are the fuzzy membership goal ratios for μ(s).
	Goals fuzzy.Goals

	// NumRows overrides the row count (0 = layout.DefaultNumRows).
	NumRows int

	// CongestBins is the congestion grid's bin-column count (0 =
	// congest.DefaultNX). Only consulted when Objectives includes
	// fuzzy.Congest. The grid geometry is a static function of circuit
	// and config, so every engine of a run bins identically.
	CongestBins int

	// Seed drives all stochastic decisions; runs are reproducible.
	Seed uint64

	// ClusteredStart builds the initial placement (and the reference
	// placement μ is normalized against) with layout.NewClustered instead
	// of layout.NewRandom: connected cells are dealt into adjacent slots,
	// concentrating routing demand into hotspots. A uniform-random start
	// spreads demand so evenly that the congestion objective has nearly
	// zero overflow to discriminate on at scale; the clustered start is the
	// configuration the large-tier congestion gate measures.
	ClusteredStart bool

	// TimingModel parameterizes the delay substrate.
	TimingModel timing.Model

	// PowerConfig parameterizes switching-activity estimation.
	PowerConfig power.Config

	// DisableIncremental forces from-scratch evaluation everywhere: net
	// lengths, goodness, and trial scoring re-collect every pin from the
	// placement instead of reading the cached wire.Incremental mirror.
	// The two modes follow bitwise-identical trajectories for every
	// objective set (the mirror is an optimization, not an
	// approximation); this switch exists as the reference for equivalence
	// tests and as an escape hatch.
	DisableIncremental bool

	// AllocWorkers is kept only so existing callers that assign it still
	// compile; nothing reads it. The engine is single-threaded: parallelism
	// lives in the Type I/II/III strategies.
	//
	// Deprecated: ignored; the vacancy scan is serial.
	AllocWorkers int

	// DisableMuTrace turns off recording μ(s) after every evaluation
	// (Engine.MuTrace). Recording is on by default — benchmarks and the
	// paper's tables consume the trace — while long-running services
	// should disable it to avoid unbounded growth.
	DisableMuTrace bool
}

// AllocOrder enumerates allocation processing orders for the selection set.
// Every engine starts with WorstFirst; Engine.SetAllocOrder changes it. The
// paper's Section 7 proposes using a different allocation function per
// Type III thread to diversify the cooperating searches;
// parallel.Options.Diversify uses these orders.
type AllocOrder uint8

// Allocation orders. WorstFirst is the classic sorted-individual-best-fit
// ("sort the elements of S", worst goodness first); BestFirst reverses it;
// WidestFirst packs wide cells before narrow ones.
const (
	WorstFirst AllocOrder = iota
	BestFirst
	WidestFirst
)

// DefaultConfig returns the paper-aligned defaults for the given objective
// set.
func DefaultConfig(obj fuzzy.Objectives) Config {
	return Config{
		Objectives:  obj,
		Bias:        0,
		MaxIters:    350,
		Alpha:       0.10,
		Beta:        0.70,
		Goals:       fuzzy.DefaultGoals(),
		TimingModel: timing.DefaultModel(),
		PowerConfig: power.DefaultConfig(),
	}
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.Objectives.Count() == 0 {
		return fmt.Errorf("core: no objectives selected")
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("core: MaxIters must be positive, got %d", c.MaxIters)
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.10
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("core: Beta %v out of [0,1]", c.Beta)
	}
	if c.Goals.Wire.Goal <= 1 || c.Goals.Power.Goal <= 1 || c.Goals.Delay.Goal <= 1 {
		return fmt.Errorf("core: membership goals must exceed 1")
	}
	// Configs predating the congestion objective leave its goal zero;
	// normalize instead of erroring so stored Specs keep validating.
	if c.Goals.Congest.Goal <= 1 {
		c.Goals.Congest = fuzzy.DefaultGoals().Congest
	}
	if c.CongestBins < 0 {
		return fmt.Errorf("core: CongestBins %d must be >= 0", c.CongestBins)
	}
	if c.PowerConfig.MaxIters == 0 {
		c.PowerConfig = power.DefaultConfig()
	}
	if c.TimingModel.Base == nil {
		c.TimingModel = timing.DefaultModel()
	}
	return nil
}

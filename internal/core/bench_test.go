package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// Micro-benchmarks for the allocation hot path. Each benchmark runs in
// Incremental (default) and Scratch (DisableIncremental) modes so the
// effect of the cached net-cost engine is directly visible;
// TestIncrementalSpeedupOverReference holds the same comparison to a
// floor on s1196.

func benchProblem(b *testing.B, scratch bool) *Problem {
	b.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "core-bench", Gates: 500, DFFs: 30, PIs: 14, POs: 14, Depth: 12, Seed: 2006,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = 1 << 30
	cfg.Seed = 2006
	cfg.DisableIncremental = scratch
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTrialCost measures scoring one (cell, vacancy) trial — the
// innermost allocation operation, executed O(|S|²) times per iteration.
func BenchmarkTrialCost(b *testing.B) {
	for _, mode := range []struct {
		name    string
		scratch bool
	}{{"Incremental", false}, {"Scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := benchProblem(b, mode.scratch)
			e := p.NewEngine(0)
			e.Step() // sizes the per-row scan state prepTrial reads
			e.EvaluateCosts()
			id := p.Ckt.Movable()[len(p.Ckt.Movable())/2]
			useInc := !mode.scratch && e.inc != nil && e.inc.Built()
			e.prepTrial(id, useInc)
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				x := float64(i%64) + 0.5
				if useInc {
					sink += e.trials.Score(e.inc.BaseView(), x, 7.5, -1)
				} else {
					sink += e.trialCost(id, x, 7.5)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkAllocate measures complete SimE iterations and reports the
// allocation phase separately (alloc-ns/op), the quantity the paper's
// Section 4 profile is about.
func BenchmarkAllocate(b *testing.B) {
	for _, mode := range []struct {
		name    string
		scratch bool
	}{{"Incremental", false}, {"Scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := benchProblem(b, mode.scratch)
			e := p.NewEngine(0)
			e.Step() // warm scratch buffers and caches
			start := e.Profile()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			d := e.Profile().Alloc - start.Alloc
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "alloc-ns/op")
		})
	}
}

// BenchmarkEvaluate measures the evaluation phase of a SimE iteration —
// EvaluateCosts followed by ComputeGoodness over the domain — on the
// placements a running engine produces: every op is a full Step, so each
// evaluation sees one iteration's worth of moved cells. eval-ns/op is the
// evaluation phase alone (the Step's own phase timer); ns/op is the whole
// iteration.
func BenchmarkEvaluate(b *testing.B) {
	for _, c := range []struct {
		circuit string
		obj     fuzzy.Objectives
	}{
		{"s1196", fuzzy.WirePower},
		{"s3330", fuzzy.WirePowerDelay},
	} {
		b.Run(c.circuit+"-"+c.obj.String(), func(b *testing.B) {
			ckt, err := gen.Benchmark(c.circuit)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(c.obj)
			cfg.MaxIters = 1 << 30
			cfg.Seed = 2006
			p, err := NewProblem(ckt, cfg)
			if err != nil {
				b.Fatal(err)
			}
			e := p.NewEngine(0)
			e.Step() // warm scratch buffers and the incremental state
			start := e.Profile()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			d := e.Profile().Eval - start.Eval
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "eval-ns/op")
		})
	}
}

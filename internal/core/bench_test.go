package core

import (
	"fmt"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// Micro-benchmarks for the allocation hot path. Each benchmark runs in
// Incremental (default) and Scratch (DisableIncremental) modes so the
// effect of the cached net-cost engine is directly visible; the baseline
// tool (cmd/simevo-bench -baseline) records the same comparison at
// BenchmarkProfileShare scale.

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

// BenchmarkAllocScanBreakEven sweeps the parallel-scan threshold so the
// break-even of the persistent worker pool is directly measurable: Serial
// disables the fan-out entirely; the numeric variants engage it for cells
// with at least that many free vacancies. Engines use the default
// AllocWorkers (min(GOMAXPROCS, 8) workers). Each generated circuit gets
// floors below the vacancy count its passes start with
// (vacancies/pass reports the last pass's), so every variant engages on
// part of each pass; benchProblem's passes hold about 110, below all of
// them. The shipped default of allocScanMinVacancies is chosen from this
// sweep (see its doc); on a single-CPU host scanWorkers() is 1 and every
// variant collapses to the identical serial path, so the sweep only
// measures noise there.
func BenchmarkAllocScanBreakEven(b *testing.B) {
	for _, c := range []struct {
		cells int
		mins  []int
	}{
		{3000, []int{512, 384, 256, 160}},
		{20000, []int{4096, 3072, 2048, 1024, 512}},
	} {
		b.Run(fmt.Sprintf("Cells%d", c.cells), func(b *testing.B) {
			ckt, err := gen.Generate(gen.ScaledParams("scale", c.cells, 2006))
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(fuzzy.WirePower)
			cfg.MaxIters = 1 << 30
			cfg.Seed = 2006
			p, err := NewProblem(ckt, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, floor := range append([]int{1 << 30}, c.mins...) {
				name := fmt.Sprintf("Min%d", floor)
				if floor == 1<<30 {
					name = "Serial"
				}
				b.Run(name, func(b *testing.B) {
					old := allocScanMinVacancies
					allocScanMinVacancies = floor
					defer func() { allocScanMinVacancies = old }()
					e := p.NewEngine(0)
					e.Step()
					start := e.Profile()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Step()
					}
					b.StopTimer()
					d := e.Profile().Alloc - start.Alloc
					b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "alloc-ns/op")
					b.ReportMetric(float64(len(e.vacs)), "vacancies/pass")
				})
			}
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

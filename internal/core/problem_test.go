package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/rng"
)

// TestCanonicalStartIsShared checks that the engines NewProblem's kept
// start feeds are the ones a fresh construction would give: NewEngine(0)
// has the placement and the generator state of building the canonical
// start anew, EngineFromReference(k) that placement with stream k's
// untouched generator, and other streams build their own start.
func TestCanonicalStartIsShared(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		ckt, err := gen.Benchmark("s1196")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(fuzzy.WirePower)
		cfg.MaxIters = 5
		cfg.Seed = 31
		cfg.ClusteredStart = clustered
		p, err := NewProblem(ckt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if lv, _ := ckt.Levelize(); p.Lv != lv {
			t.Fatal("NewProblem levelized the built circuit again")
		}
		fresh := func(stream uint64) (uint64, *rng.R) {
			rnd := rng.NewStream(cfg.Seed, stream)
			return initialPlacement(ckt, &cfg, rnd).Fingerprint(), rnd
		}
		sameDraws := func(what string, a, b *rng.R) {
			t.Helper()
			for i := 0; i < 1000; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("clustered %v, %s: draw %d is %d, fresh construction %d", clustered, what, i, x, y)
				}
			}
		}

		want, wantRnd := fresh(refStream)
		e := p.NewEngine(refStream)
		if got := e.Placement().Fingerprint(); got != want {
			t.Fatalf("clustered %v: NewEngine(0) placement %x, fresh %x", clustered, got, want)
		}
		sameDraws("NewEngine(0)", e.rnd, wantRnd)
		// The first engine's draws must not have advanced the kept state.
		_, wantRnd = fresh(refStream)
		sameDraws("second NewEngine(0)", p.NewEngine(refStream).rnd, wantRnd)

		for _, k := range []uint64{0, 3} {
			e := p.EngineFromReference(k)
			if got := e.Placement().Fingerprint(); got != want {
				t.Fatalf("clustered %v: EngineFromReference(%d) placement %x, fresh %x", clustered, k, got, want)
			}
			sameDraws("EngineFromReference", e.rnd, rng.NewStream(cfg.Seed, k))
		}

		want2, wantRnd2 := fresh(2)
		e2 := p.NewEngine(2)
		if got := e2.Placement().Fingerprint(); got != want2 {
			t.Fatalf("clustered %v: NewEngine(2) placement %x, fresh %x", clustered, got, want2)
		}
		sameDraws("NewEngine(2)", e2.rnd, wantRnd2)

		// Engines own their copies: running one leaves the kept start as
		// it was.
		e.Run()
		if got := p.NewEngine(refStream).Placement().Fingerprint(); got != want {
			t.Fatalf("clustered %v: canonical start changed after a run: %x, want %x", clustered, got, want)
		}
	}
}

// BenchmarkNewProblem times problem set-up on the 20k-cell scaled circuit
// in the configuration of the benchmark's scale-20k-wpc workload: the
// activity fixpoint, the canonical start and its reference evaluation,
// then the first engine built from it.
func BenchmarkNewProblem(b *testing.B) {
	ckt, err := gen.Generate(gen.ScaledParams("scale", 20000, 2006))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePowerCongest)
	cfg.Seed = 2006
	cfg.ClusteredStart = true
	cfg.CongestBins = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewProblem(ckt, cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.NewEngine(refStream)
	}
}

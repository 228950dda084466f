package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

// goldenTrajectories pins serial SimE trajectories across commits: the
// hash covers every μ(s) of the trace, the best costs, and the best
// placement's fingerprint. A change that is meant to keep results bitwise
// identical (a refactor, a deleted cache, a faster kernel) must leave
// every hash untouched; a change that moves results on purpose updates
// the table and says why.
//
// The s1196 cases run 40 iterations (seed 2006) per objective set. The
// scale case is the benchmark's smoke configuration of its generated
// workload: a 2000-cell ScaledParams circuit, wpc, clustered start, 64
// congestion bins, 4 iterations — a row count where the vacancy scan's
// row and bucket pruning carry real weight, unlike s1196's 22 rows.
var goldenTrajectories = []struct {
	name string
	hash string
	run  func(t *testing.T) *Result
}{
	{"wire+power", "a0a969a6ca9fe0ca", s1196Golden(fuzzy.WirePower)},
	{"wire+power+delay", "f6fc2f4b06934aeb", s1196Golden(fuzzy.WirePowerDelay)},
	{"wire+power+congestion", "3df6987c08761db7", s1196Golden(fuzzy.WirePowerCongest)},
	{"wire+power+delay+congestion", "077c21b1e276f014", s1196Golden(fuzzy.WirePowerDelayCongest)},
	{"scale-2000-wpc", "11bc723ea1a484a3", scaleGolden},
}

func s1196Golden(obj fuzzy.Objectives) func(t *testing.T) *Result {
	return func(t *testing.T) *Result {
		ckt, err := gen.Benchmark("s1196")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(obj)
		cfg.MaxIters = 40
		cfg.Seed = 2006
		return goldenRun(t, ckt, cfg)
	}
}

func scaleGolden(t *testing.T) *Result {
	ckt, err := gen.Generate(gen.ScaledParams("scale", 2000, 2006))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePowerCongest)
	cfg.MaxIters = 4
	cfg.Seed = 2006
	cfg.ClusteredStart = true
	cfg.CongestBins = 64
	return goldenRun(t, ckt, cfg)
}

func goldenRun(t *testing.T, ckt *netlist.Circuit, cfg Config) *Result {
	t.Helper()
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.NewEngine(0).Run()
}

// trajectoryHash hashes a run's μ trace, best costs and best placement.
func trajectoryHash(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.MuTrace)))
	for _, mu := range res.MuTrace {
		put(math.Float64bits(mu))
	}
	c := res.BestCosts
	for _, v := range []float64{c.Wire, c.Power, c.Delay, c.Congest} {
		put(math.Float64bits(v))
	}
	put(res.Best.Fingerprint())
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenTrajectories(t *testing.T) {
	for _, g := range goldenTrajectories {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			if got := trajectoryHash(g.run(t)); got != g.hash {
				t.Errorf("trajectory hash %s, want %s", got, g.hash)
			}
		})
	}
}

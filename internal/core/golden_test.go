package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// goldenTrajectories pins the serial SimE trajectory on s1196 across
// commits: the hash covers every μ(s) of the trace, the best costs, and
// the best placement's fingerprint. A change that is meant to keep results
// bitwise identical (a refactor, a deleted cache, a faster kernel) must
// leave every hash untouched; a change that moves results on purpose
// updates the table and says why.
var goldenTrajectories = []struct {
	obj  fuzzy.Objectives
	hash string
}{
	{fuzzy.WirePower, "a0a969a6ca9fe0ca"},
	{fuzzy.WirePowerDelay, "f6fc2f4b06934aeb"},
	{fuzzy.WirePowerCongest, "3df6987c08761db7"},
	{fuzzy.WirePowerDelayCongest, "077c21b1e276f014"},
}

// trajectoryHash runs 40 iterations of SimE on s1196 (seed 2006) and
// hashes the result.
func trajectoryHash(t *testing.T, obj fuzzy.Objectives) string {
	t.Helper()
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(obj)
	cfg.MaxIters = 40
	cfg.Seed = 2006
	cfg.AllocWorkers = 1
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := p.NewEngine(0).Run()
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
		t.Run(g.obj.String(), func(t *testing.T) {
			t.Parallel()
			if got := trajectoryHash(t, g.obj); got != g.hash {
				t.Errorf("trajectory hash %s, want %s", got, g.hash)
			}
		})
	}
}

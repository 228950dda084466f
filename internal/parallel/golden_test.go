package parallel_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/metaheur"
	"simevo/internal/mpi"
	"simevo/internal/parallel"
)

// goldenParallel pins the parallel strategies' results on s1196 across
// commits, in the style of core.TestGoldenTrajectories: each hash covers
// the result fields the strategy determines on the virtual-time simulator
// with compute measurement off. A change meant to keep results bitwise
// identical (a protocol merge, a deleted code path) must leave every hash
// untouched; a change that moves results on purpose updates the table and
// says why.
var goldenParallel = []struct {
	name string
	run  func(t *testing.T) string
	hash string
}{
	{"typeII-p3", goldenTypeII, "ff505a4f2f434671"},
	// Re-recorded when the async searchers stopped speculating: a better
	// store solution is adopted outright and, as in blocking mode, the
	// next evaluation's improvement re-posts it. μ is unchanged
	// (0.5789353318492759); posted went 51 → 52.
	{"typeIII-async-p4", func(t *testing.T) string { return goldenTypeIII(t, false) }, "f0b0208d9b5757d4"},
	// The store epoch counts strict improvements in arrival order, so it
	// also pins the size of every frame a searcher sends: a larger poll
	// delays the sender's later posts in virtual time and can reorder them.
	{"typeIII-block-p4", func(t *testing.T) string { return goldenTypeIII(t, true) }, "9ef72dc5025d068d"},
	{"parallelSA-p3", goldenParallelSA, "4be51b83480d5a1b"},
}

// goldenProblem is s1196 under wire+power, 40 iterations, seed 2006.
func goldenProblem(t *testing.T) *core.Problem {
	t.Helper()
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = 40
	cfg.Seed = 2006
	p, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenOpts is a deterministic simulated cluster: FastEthernet timing,
// compute measurement off.
func goldenOpts(procs int) parallel.Options {
	net := mpi.FastEthernet()
	off := false
	return parallel.Options{Procs: procs, Net: &net, MeasureCompute: &off}
}

// hasher accumulates 64-bit words into an fnv64a digest.
type hasher struct{ words []uint64 }

func (h *hasher) put(v uint64)   { h.words = append(h.words, v) }
func (h *hasher) putF(v float64) { h.put(math.Float64bits(v)) }
func (h *hasher) putI(v int)     { h.put(uint64(v)) }
func (h *hasher) sum() string {
	d := fnv.New64a()
	var buf [8]byte
	for _, w := range h.words {
		binary.LittleEndian.PutUint64(buf[:], w)
		d.Write(buf[:])
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

func goldenTypeII(t *testing.T) string {
	res, err := parallel.RunTypeII(goldenProblem(t), goldenOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	var h hasher
	h.putI(len(res.MuTrace))
	for _, mu := range res.MuTrace {
		h.putF(mu)
	}
	c := res.BestCosts
	for _, v := range []float64{c.Wire, c.Power, c.Delay, c.Congest} {
		h.putF(v)
	}
	h.put(res.Best.Fingerprint())
	return h.sum()
}

// goldenTypeIII hashes a 4-rank Type III run at retry 5. The blocking
// mode's post count is left out: it is an exchange statistic, not a
// result, and the blocking mode's accounting of it has changed.
func goldenTypeIII(t *testing.T, block bool) string {
	opt := goldenOpts(4)
	opt.Retry = 5
	opt.SyncExchange = block
	res, err := parallel.RunTypeIII(goldenProblem(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Exchange
	var h hasher
	h.putF(res.BestMu)
	h.put(res.Best.Fingerprint())
	h.put(ex.StoreEpoch)
	h.putI(ex.Adopted)
	// Two zero words where the hashes once covered the speculation's
	// rejected and restored counts, so the recorded hashes stay valid.
	h.putI(0)
	h.putI(0)
	if !block {
		h.putI(ex.Posted)
	}
	t.Logf("μ %v epoch %d posted %d adopted %d",
		res.BestMu, ex.StoreEpoch, ex.Posted, ex.Adopted)
	return h.sum()
}

func goldenParallelSA(t *testing.T) string {
	net := mpi.FastEthernet()
	off := false
	res, err := metaheur.RunParallelSA(goldenProblem(t), metaheur.ParallelSAConfig{
		SA:             metaheur.SAConfig{Moves: 8000, Seed: 2},
		Procs:          3,
		Net:            &net,
		MeasureCompute: &off,
	})
	if err != nil {
		t.Fatal(err)
	}
	var h hasher
	h.putF(res.BestMu)
	h.put(res.Best.Fingerprint())
	return h.sum()
}

func TestGoldenParallel(t *testing.T) {
	for _, g := range goldenParallel {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			if got := g.run(t); got != g.hash {
				t.Errorf("result hash %s, want %s", got, g.hash)
			}
		})
	}
}

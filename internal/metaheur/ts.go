package metaheur

import (
	"context"
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/netlist"
	"simevo/internal/parallel"
	"simevo/internal/rng"
)

// TSConfig parameterizes tabu search.
type TSConfig struct {
	// Iters is the number of tabu iterations (one applied move each).
	Iters int
	// Candidates is the sampled neighborhood size per iteration (0: 64).
	Candidates int
	// Tenure is the number of iterations a moved cell stays tabu (0: 12).
	Tenure int
	Seed   uint64
}

func (c *TSConfig) defaults() {
	if c.Candidates == 0 {
		c.Candidates = 64
	}
	if c.Tenure == 0 {
		c.Tenure = 12
	}
}

// tsState is one tabu search; the parallel variant distributes candidate
// evaluation while the master owns the state.
type tsState struct {
	prob      *core.Problem
	cfg       TSConfig
	ev        *evaluator
	place     *layout.Placement
	rnd       *rng.R
	tabuUntil []int // per cell: first iteration the cell is free again
	iter      int
	bestMu    float64
	bestCosts fuzzy.Costs
	best      *layout.Placement
}

func newTS(prob *core.Problem, cfg TSConfig) *tsState {
	eng := prob.EngineFromReference(0)
	place := eng.Placement()
	ev := newEvaluator(prob)
	ev.fullBound(place)
	ts := &tsState{
		prob: prob, cfg: cfg, ev: ev, place: place,
		rnd:       rng.NewStream(prob.Cfg.Seed^cfg.Seed, 0x7ab0),
		tabuUntil: make([]int, len(prob.Ckt.Cells)),
	}
	ts.best = place.Clone()
	ts.bestMu = ev.mu(place)
	ts.bestCosts = ev.costs()
	return ts
}

// sampleCandidates draws the iteration's neighborhood (distinct random
// swap pairs).
func (ts *tsState) sampleCandidates(dst [][2]netlist.CellID) [][2]netlist.CellID {
	movable := ts.prob.Ckt.Movable()
	dst = dst[:0]
	for len(dst) < ts.cfg.Candidates {
		a, b := randomPair(movable, ts.rnd)
		dst = append(dst, [2]netlist.CellID{a, b})
	}
	return dst
}

// pickBest returns the index of the best admissible candidate: lowest
// delta among non-tabu moves, or a tabu move that would beat the best
// solution (aspiration). deltas[i] corresponds to cands[i].
func (ts *tsState) pickBest(cands [][2]netlist.CellID, deltas []float64) int {
	cur := ts.ev.energy()
	bestEnergy := cur // energy of ts.best is not tracked; use μ aspiration below
	_ = bestEnergy
	bestIdx := -1
	for i, cand := range cands {
		tabu := ts.tabuUntil[cand[0]] > ts.iter || ts.tabuUntil[cand[1]] > ts.iter
		if tabu {
			// Aspiration: admit a tabu move only if it is strictly
			// improving on the current solution by a clear margin.
			if deltas[i] >= 0 {
				continue
			}
		}
		if bestIdx < 0 || deltas[i] < deltas[bestIdx] {
			bestIdx = i
		}
	}
	return bestIdx
}

// applyCandidate commits a candidate and updates tabu state and the best.
// The placement is recomputed exactly after every applied move: the Type I
// parallel variant ships the placement to the slaves each iteration, and
// serial and parallel TS must score candidates against identical
// coordinates for the trajectory-equivalence invariant to hold.
func (ts *tsState) applyCandidate(cand [2]netlist.CellID) {
	ts.ev.applySwap(ts.place, cand[0], cand[1])
	ts.tabuUntil[cand[0]] = ts.iter + ts.cfg.Tenure
	ts.tabuUntil[cand[1]] = ts.iter + ts.cfg.Tenure
	ts.place.Recompute()
	ts.ev.fullBound(ts.place)
	if mu := ts.ev.mu(ts.place); mu > ts.bestMu {
		ts.bestMu = mu
		ts.bestCosts = ts.ev.costs()
		ts.best = ts.place.Clone()
	}
}

// RunTS executes serial tabu search: every iteration samples a candidate
// neighborhood of swaps, applies the best admissible one (tabu moves are
// admitted only under the aspiration criterion), and marks the moved cells
// tabu for Tenure iterations.
func RunTS(prob *core.Problem, cfg TSConfig) (*Result, error) {
	return RunTSContext(context.Background(), prob, cfg, nil)
}

// RunTSContext is RunTS with cooperative cancellation and progress
// reporting. The context is checked between tabu iterations; a cancelled
// run returns the best-so-far result. progress, when non-nil, is invoked
// after every iteration with the iteration count and the best μ.
func RunTSContext(ctx context.Context, prob *core.Problem, cfg TSConfig, progress core.Progress) (*Result, error) {
	if err := requireWirePower(prob); err != nil {
		return nil, err
	}
	cfg.defaults()
	start := time.Now()
	ts := newTS(prob, cfg)
	var cands [][2]netlist.CellID
	deltas := make([]float64, 0, cfg.Candidates)
	for ts.iter = 0; ts.iter < cfg.Iters && ctx.Err() == nil; ts.iter++ {
		cands = ts.sampleCandidates(cands)
		deltas = deltas[:0]
		for _, cand := range cands {
			deltas = append(deltas, ts.ev.swapDelta(ts.place, cand[0], cand[1]))
		}
		if i := ts.pickBest(cands, deltas); i >= 0 {
			ts.applyCandidate(cands[i])
		}
		if progress != nil {
			progress(core.IterStats{Iter: ts.iter + 1, Mu: ts.bestMu, Costs: ts.bestCosts})
		}
	}
	return &Result{
		BestMu:    ts.bestMu,
		BestCosts: ts.bestCosts,
		Best:      ts.best,
		Moves:     ts.iter,
		Runtime:   time.Since(start),
	}, nil
}

// ParallelTSConfig configures Type I parallel tabu search.
type ParallelTSConfig struct {
	TS             TSConfig
	Procs          int
	Net            *mpi.NetModel
	MeasureCompute *bool
}

// RunParallelTS distributes the candidate-list evaluation over slaves (the
// Type I scheme of the authors' TS companion paper [6], which they report
// gave TS its best speedups): the master samples the neighborhood,
// broadcasts the placement and candidate list, the slaves evaluate their
// chunk of deltas, and the master applies the winner. The trajectory is
// identical to serial TS with the same seed.
func RunParallelTS(prob *core.Problem, cfg ParallelTSConfig) (*parallel.Result, error) {
	if err := requireWirePower(prob); err != nil {
		return nil, err
	}
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("metaheur: parallel TS needs >= 2 ranks")
	}
	c := cfg.TS
	c.defaults()
	o := parallel.Options{Procs: cfg.Procs, Net: cfg.Net, MeasureCompute: cfg.MeasureCompute}
	return parallel.RunSim(prob, o, func(comm parallel.Comm, prob *core.Problem, _ parallel.Options) (*parallel.Result, error) {
		if comm.Rank() == 0 {
			return parallelTSMaster(prob, c, comm)
		}
		return nil, parallelTSSlave(prob, comm)
	})
}

func parallelTSMaster(prob *core.Problem, cfg TSConfig, c parallel.Comm) (*parallel.Result, error) {
	ts := newTS(prob, cfg)
	var cands [][2]netlist.CellID
	deltas := make([]float64, cfg.Candidates)

	for ts.iter = 0; ts.iter < cfg.Iters; ts.iter++ {
		cands = ts.sampleCandidates(cands)

		// Ship placement + candidate list; slaves evaluate their chunks.
		msg := ts.place.Encode()
		msg = append(msg, encodeCands(cands)...)
		c.Bcast(0, msg)

		lo, hi := chunkRange(len(cands), 0, c.Size())
		for i := lo; i < hi; i++ {
			deltas[i] = ts.ev.swapDelta(ts.place, cands[i][0], cands[i][1])
		}
		parts := c.Gather(0, encodeChunk(deltas[lo:hi]))
		for r := 1; r < c.Size(); r++ {
			rlo, rhi := chunkRange(len(cands), r, c.Size())
			vals, err := decodeChunk(parts[r])
			if err != nil {
				return nil, err
			}
			if len(vals) != rhi-rlo {
				return nil, fmt.Errorf("metaheur: rank %d returned %d deltas, want %d", r, len(vals), rhi-rlo)
			}
			copy(deltas[rlo:rhi], vals)
		}

		if i := ts.pickBest(cands, deltas[:len(cands)]); i >= 0 {
			ts.applyCandidate(cands[i])
		}
	}
	c.Bcast(0, nil)

	return &parallel.Result{
		BestMu:    ts.bestMu,
		BestCosts: ts.bestCosts,
		Best:      ts.best,
		Iters:     ts.iter,
	}, nil
}

func parallelTSSlave(prob *core.Problem, c parallel.Comm) error {
	ev := newEvaluator(prob)
	for {
		msg := c.Bcast(0, nil)
		if len(msg) == 0 {
			return nil
		}
		place, rest, err := decodePlacementPrefix(prob, msg)
		if err != nil {
			return err
		}
		cands, err := decodeCands(rest)
		if err != nil {
			return err
		}
		ev.fullBound(place)
		lo, hi := chunkRange(len(cands), c.Rank(), c.Size())
		out := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, ev.swapDelta(place, cands[i][0], cands[i][1]))
		}
		c.Gather(0, encodeChunk(out))
	}
}

func chunkRange(n, rank, size int) (int, int) {
	return rank * n / size, (rank + 1) * n / size
}

package parallel

import (
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/netlist"
	"simevo/internal/telemetry"
	"simevo/internal/transport"
)

// RunTypeI executes the low-level parallelization of the paper's Figures
// 2-3: each iteration the master broadcasts the current placement, every
// rank (master included) computes the costs and the goodness of its chunk
// of cells, the master gathers the goodness values and performs selection
// and allocation locally.
//
// Because every rank must know the wirelength of all fan-in nets to
// evaluate its chunk's goodness, each rank recomputes the full net-length
// array — the duplicated work the paper identifies as the reason Type I
// yields no speedup. The search trajectory is bitwise identical to the
// serial engine with the same seed (verified by tests).
func RunTypeI(prob *core.Problem, opt Options) (*Result, error) {
	if opt.Procs < 2 {
		return nil, fmt.Errorf("parallel: Type I needs >= 2 ranks, got %d", opt.Procs)
	}
	movable := prob.Ckt.Movable()
	if len(movable) < opt.Procs {
		return nil, fmt.Errorf("parallel: %d cells cannot feed %d ranks", len(movable), opt.Procs)
	}
	return RunSim(prob, opt, TypeIRank)
}

// TypeIRank executes this rank's role in a Type I run over an existing
// transport — the entry point worker processes use on a real cluster. Rank
// 0 returns the result; other ranks return (nil, nil) on success.
func TypeIRank(c Comm, prob *core.Problem, opt Options) (*Result, error) {
	if c.Size() < 2 {
		return nil, fmt.Errorf("parallel: Type I needs >= 2 ranks, got %d", c.Size())
	}
	if len(prob.Ckt.Movable()) < c.Size() {
		return nil, fmt.Errorf("parallel: %d cells cannot feed %d ranks", len(prob.Ckt.Movable()), c.Size())
	}
	if c.Rank() == 0 {
		root, err := rootComm(c)
		if err != nil {
			return nil, err
		}
		res := typeIMaster(prob, root, opt)
		attachRankStats(c, res)
		return res, nil
	}
	return nil, typeISlave(prob, c)
}

// Comm is the per-rank communication handle the strategies run against: a
// simulated rank (*mpi.Comm) or a TCP endpoint (internal/transport).
type Comm = transport.Transport

// cellChunk returns rank r's contiguous slice of the movable cells.
func cellChunk(movable []netlist.CellID, r, p int) []netlist.CellID {
	lo := r * len(movable) / p
	hi := (r + 1) * len(movable) / p
	return movable[lo:hi]
}

func typeIMaster(prob *core.Problem, c FaultComm, opt Options) *Result {
	eng := prob.NewEngine(0) // identical construction to the serial run
	movable := prob.Ckt.Movable()
	chunk := cellChunk(movable, 0, c.Size())
	var goodsBuf, lostBuf []float64
	bcast := newSlotPatch(eng.Placement())

	for iter := 0; iter < prob.Cfg.MaxIters && !opt.cancelled(); iter++ {
		roundStart := time.Now()
		// Broadcast the moves since the previous broadcast to the live
		// slaves, which hold that state. The patch is never empty (its
		// bitmap has a bit per slot), so it cannot be taken for the stop
		// signal.
		c.BcastRoot(bcast.appendMoves(nil, eng.Placement()))

		// Local evaluation: full costs (duplicated on every rank) plus the
		// master's goodness chunk.
		eng.EvaluateCosts()
		goodsBuf = eng.ComputeGoodness(chunk, goodsBuf)

		// Gather the slaves' goodness chunks.
		parts := c.GatherRoot(encodeF64s(goodsBuf))
		for r := 1; r < c.Size(); r++ {
			rchunk := cellChunk(movable, r, c.Size())
			if parts[r] != nil {
				vals, err := decodeF64s(parts[r])
				if err == nil && len(vals) == len(rchunk) {
					eng.SetGoodness(rchunk, vals)
					continue
				}
				c.DropRank(r, fmt.Errorf("parallel: corrupt goodness chunk: err=%v len=%d want=%d",
					err, len(vals), len(rchunk)))
			}
			// Degraded: recompute the lost chunk locally. Goodness is a
			// pure function of the placement, so the trajectory equals the
			// no-fault run — a Type I failure costs time, never quality.
			lostBuf = eng.ComputeGoodness(rchunk, lostBuf)
			eng.SetGoodness(rchunk, lostBuf)
		}

		// Selection and allocation happen only on the master.
		opt.report(eng.SelectAndAllocate())
		telemetry.ExchangeRoundType1Ns.Observe(int64(time.Since(roundStart)))
	}
	// Terminal broadcast: a zero-length message signals the slaves to stop.
	c.BcastRoot(nil)
	eng.EvaluateCosts()

	res := eng.Result()
	return &Result{
		BestMu:      res.BestMu,
		BestCosts:   res.BestCosts,
		Best:        res.Best,
		Iters:       res.Iters,
		MuTrace:     res.MuTrace,
		Telemetry:   res.Telemetry,
		FailedRanks: failedRankList(c),
	}
}

func typeISlave(prob *core.Problem, c Comm) error {
	// Every slave starts from the canonical start, as the master does.
	eng := prob.NewEngine(0)
	patch := newSlotPatch(eng.Placement())
	movable := prob.Ckt.Movable()
	chunk := cellChunk(movable, c.Rank(), c.Size())
	var goodsBuf []float64

	for {
		data := c.Bcast(0, nil)
		if len(data) == 0 {
			return nil // stop signal
		}
		place := eng.Placement()
		if err := patch.apply(data, place, nil); err != nil {
			return fmt.Errorf("parallel: rank %d patching placement: %w", c.Rank(), err)
		}
		eng.SetPlacement(place) // rebuild the mirror, as for Type II
		// Full cost evaluation (duplicate work) is required before any
		// goodness can be computed: wirelength goodness of a cell needs
		// the lengths of all its fan-in nets.
		eng.EvaluateCosts()
		goodsBuf = eng.ComputeGoodness(chunk, goodsBuf)
		c.Gather(0, encodeF64s(goodsBuf))
	}
}

package parallel

import (
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/rng"
	"simevo/internal/telemetry"
)

// RunTypeII executes the domain-decomposition strategy of the paper's
// Figures 4-5: every iteration the master draws a row assignment from the
// configured pattern and broadcasts it with the current placement; every
// rank (master included) runs a complete SimE iteration — evaluation,
// selection, allocation — restricted to its own rows, treating all other
// cells as fixed; the slaves send their updated rows back and the master
// merges them into the next solution.
//
// Unlike Type I this parallelizes the allocation operator, the largest
// phase of a serial iteration, so it is the strategy that actually divides
// the workload. Allocation is not all of it: traced runs on a 2-vCPU host
// put allocation at about 79% of a serial s3330 wire+power+delay
// iteration and evaluation at 18%. Every rank repeats the evaluation in
// full, so at p=3 it is about a third of a rank's iteration on the same
// circuit (35%, against 63% for the rank's share of the allocation). The
// price is a different search behaviour: each rank has limited freedom of
// cell movement, so more iterations are needed to converge and the best
// serial quality is not always reached (the paper's Tables 2-3).
func RunTypeII(prob *core.Problem, opt Options) (*Result, error) {
	if opt.Procs < 2 {
		return nil, fmt.Errorf("parallel: Type II needs >= 2 ranks, got %d", opt.Procs)
	}

	cl := mpi.NewCluster(opt.Procs, mpi.Options{Net: opt.net(), MeasureCompute: opt.measure()})
	var out *Result
	err := cl.Run(func(c *mpi.Comm) error {
		res, err := TypeIIRank(c, prob, opt)
		if res != nil {
			out = res
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out.VirtualTime = cl.MakeSpan()
	out.RankStats = cl.Stats()
	return out, nil
}

// TypeIIRank executes this rank's role in a Type II run over an existing
// transport — the entry point worker processes use on a real cluster. Rank
// 0 returns the result; other ranks return (nil, nil) on success.
func TypeIIRank(c Comm, prob *core.Problem, opt Options) (*Result, error) {
	if c.Size() < 2 {
		return nil, fmt.Errorf("parallel: Type II needs >= 2 ranks, got %d", c.Size())
	}
	if c.Rank() == 0 {
		pattern := opt.Pattern
		if pattern == nil {
			pattern = FixedPattern{}
		}
		res, err := typeIIMaster(prob, c, pattern, opt)
		attachRankStats(c, res)
		return res, err
	}
	return nil, typeIISlave(prob, c)
}

func typeIIMaster(prob *core.Problem, c Comm, pattern RowPattern, opt Options) (*Result, error) {
	eng := prob.NewEngine(0)
	targetMu := opt.TargetMu
	numRows := eng.Placement().NumRows()
	if numRows < c.Size() {
		return nil, fmt.Errorf("parallel: %d rows cannot feed %d ranks", numRows, c.Size())
	}
	numCells := len(prob.Ckt.Cells)

	// Delta-codec state: the slot assignment as of the previous broadcast.
	// Every rank's placement agrees with it up to that rank's own last
	// merge contribution, so one shared delta batch patches every slave
	// (a slave's own moves re-apply as no-ops).
	var prevSlots []layout.SlotRef
	var deltaBuf []layout.SlotDelta

	fc := tolerantComm(c, opt)
	res := &Result{}
	for iter := 0; iter < prob.Cfg.MaxIters && !opt.cancelled(); iter++ {
		roundStart := time.Now()
		assign := pattern.Assign(iter, numRows, c.Size())
		if err := validatePattern(assign, numRows); err != nil {
			return nil, err
		}
		if fc != nil {
			// Degraded: dead ranks' row shares move onto the survivors, so
			// every row keeps being optimized. With no failures this is a
			// no-op and the assignment (hence the trajectory) is untouched.
			redistributeRows(assign, fc.FailedRanks())
		}

		// Broadcast assignment + placement in one message: the full
		// encoding on the first iteration (and when deltas would not pay —
		// a delta entry costs 3 words against 1 word per cell, so deltas
		// win while under a third of the cells moved), a moved-cell delta
		// batch against the previous broadcast otherwise.
		msg := encodeAssignment(assign)
		place := eng.Placement()
		deltaBuf = deltaBuf[:0]
		if prevSlots != nil {
			deltaBuf = place.DiffSlots(prevSlots, deltaBuf)
		}
		if prevSlots != nil && 3*len(deltaBuf) < numCells+numRows {
			msg = append(msg, bcastDelta)
			msg = appendSlotDeltas(msg, deltaBuf)
		} else {
			msg = append(msg, bcastFull)
			msg = append(msg, place.Encode()...)
		}
		prevSlots = place.SnapshotSlots(prevSlots)
		if fc != nil {
			fc.BcastRoot(msg)
		} else {
			c.Bcast(0, msg)
		}

		// The master works its own partition like any slave. Step's
		// evaluation sees the previous iteration's merged solution, so μ
		// tracking covers every merge with no duplicate evaluation.
		eng.DomainFromRows(assign[0])
		opt.report(eng.Step())

		// Merge the slaves' rows into the master's placement.
		for r := 1; r < c.Size(); r++ {
			if fc != nil {
				if len(assign[r]) == 0 {
					continue // dead this iteration: its rows went to survivors
				}
				data, _, err := fc.TryRecv(r, tagT2Rows)
				if err != nil {
					// The rank died between broadcast and merge. Its rows
					// simply keep their pre-iteration positions (still a
					// valid placement) and move to survivors next round.
					continue
				}
				if err := eng.Placement().ApplyRows(data); err != nil {
					fc.DropRank(r, fmt.Errorf("parallel: corrupt row merge: %w", err))
					continue
				}
				continue
			}
			data, _ := c.Recv(r, tagT2Rows)
			if err := eng.Placement().ApplyRows(data); err != nil {
				return nil, fmt.Errorf("parallel: merging rank %d rows: %w", r, err)
			}
		}
		eng.Placement().Recompute()
		telemetry.ExchangeRoundType2Ns.Observe(int64(time.Since(roundStart)))

		if targetMu > 0 && !res.ReachedTarget && eng.BestMu() >= targetMu {
			res.ReachedTarget = true
			res.TimeToTarget = c.Elapsed()
			break
		}
	}
	if fc != nil {
		fc.BcastRoot(nil) // stop signal, skipping dead ranks
	} else {
		c.Bcast(0, nil) // stop signal
	}

	// Evaluate the final merged solution (Step never saw the last merge)
	// and check its integrity once.
	eng.EvaluateCosts()
	if err := eng.Placement().Validate(); err != nil {
		return nil, fmt.Errorf("parallel: final merged solution invalid: %w", err)
	}

	er := eng.Result()
	res.BestMu = er.BestMu
	res.BestCosts = er.BestCosts
	res.Best = er.Best
	res.Iters = er.Iters
	res.MuTrace = er.MuTrace
	res.Telemetry = er.Telemetry
	if fc != nil {
		res.FailedRanks = failedRankList(fc)
	}
	return res, nil
}

const tagT2Rows = 20

func typeIISlave(prob *core.Problem, c Comm) error {
	// Each slave draws selection randomness from its own stream.
	slaveRng := rng.NewStream(prob.Cfg.Seed, uint64(1000+c.Rank()))
	eng := prob.EngineFrom(layout.New(prob.Ckt, prob.Cfg.NumRows), slaveRng)
	havePlacement := false
	for {
		data := c.Bcast(0, nil)
		if len(data) == 0 {
			return nil
		}
		assign, rest, err := decodeAssignment(data)
		if err != nil {
			return err
		}
		if len(assign) != c.Size() {
			return fmt.Errorf("parallel: assignment for %d ranks, cluster has %d", len(assign), c.Size())
		}
		if len(rest) == 0 {
			return fmt.Errorf("parallel: rank %d received broadcast without payload kind", c.Rank())
		}
		kind, rest := rest[0], rest[1:]
		switch kind {
		case bcastFull:
			place, err := layout.DecodePlacement(prob.Ckt, rest)
			if err != nil {
				return fmt.Errorf("parallel: rank %d decoding placement: %w", c.Rank(), err)
			}
			eng.SetPlacement(place)
			havePlacement = true
		case bcastDelta:
			// Patch the previous broadcast state in place: the entries for
			// this rank's own last contribution are no-ops, the rest move
			// cells the other ranks reallocated. The engine's cached net
			// state stays warm — only the dirty nets are re-estimated.
			if !havePlacement {
				return fmt.Errorf("parallel: rank %d received delta before any full placement", c.Rank())
			}
			deltas, err := decodeSlotDeltas(rest)
			if err != nil {
				return err
			}
			if err := eng.PatchPlacement(deltas); err != nil {
				return fmt.Errorf("parallel: rank %d patching placement: %w", c.Rank(), err)
			}
		default:
			return fmt.Errorf("parallel: rank %d received unknown broadcast kind %#x", c.Rank(), kind)
		}
		// A corrupt assignment must fail the rank, not panic it: rows out
		// of range would index past the placement in DomainFromRows.
		if err := validateAssignment(assign, eng.Placement().NumRows()); err != nil {
			return fmt.Errorf("parallel: rank %d received a bad assignment: %w", c.Rank(), err)
		}
		myRows := assign[c.Rank()]
		eng.DomainFromRows(myRows)
		eng.Step()
		c.Send(0, tagT2Rows, eng.Placement().EncodeRows(myRows))
	}
}

package parallel

import (
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/telemetry"
)

// RunTypeII executes the domain-decomposition strategy of the paper's
// Figures 4-5: every iteration the master draws a row assignment from the
// configured pattern and broadcasts it with the cells moved since the
// previous broadcast; every rank (master included) runs a complete SimE
// iteration — evaluation, selection, allocation — restricted to its own
// rows, treating all other cells as fixed; the slaves send their own moves
// back and the master merges them into the next solution. Both directions
// use one slot-patch format (slotPatch), and no full placement is ever
// sent: every rank starts from the canonical start.
//
// On s3330 wire+power+delay at p=3 (traced run, 2 vCPUs) a round sends
// 4.8 kB against 17.5 kB when the broadcast carried full placements and
// the replies whole rows. Communication is then 38% of the ranks' summed
// virtual clocks (40% of the master's) against 43% (43%). With compute
// measurement off, 250 iterations take 237 ms of virtual time against
// 363 ms.
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

	return RunSim(prob, opt, TypeIIRank)
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
		root, err := rootComm(c)
		if err != nil {
			return nil, err
		}
		res, err := typeIIMaster(prob, root, pattern, opt)
		attachRankStats(c, res)
		return res, err
	}
	return nil, typeIISlave(prob, c)
}

func typeIIMaster(prob *core.Problem, c FaultComm, pattern RowPattern, opt Options) (*Result, error) {
	eng := prob.NewEngine(0)
	targetMu := opt.TargetMu
	numRows := eng.Placement().NumRows()
	if numRows < c.Size() {
		return nil, fmt.Errorf("parallel: %d rows cannot feed %d ranks", numRows, c.Size())
	}

	// Every rank starts from the canonical start and holds the previous
	// broadcast state up to its own last moves, so one patch of the moves
	// since the previous broadcast brings every slave to the master's
	// placement (a slave's own moves re-apply as no-ops). The replies are
	// patches against the broadcast state, decoded with the same slot
	// positions.
	bcast := newSlotPatch(eng.Placement())

	res := &Result{}
	for iter := 0; iter < prob.Cfg.MaxIters && !opt.cancelled(); iter++ {
		roundStart := time.Now()
		assign := pattern.Assign(iter, numRows, c.Size())
		if err := validatePattern(assign, numRows); err != nil {
			return nil, err
		}
		// Degraded: dead ranks' row shares move onto the survivors, so
		// every row keeps being optimized. With no failures this is a
		// no-op and the assignment (hence the trajectory) is untouched.
		redistributeRows(assign, c.FailedRanks())

		// Broadcast the assignment and the moves since the previous
		// broadcast in one message. Under wire+power+delay about half of
		// s3330's cells move per round, and the patch costs a bit per slot
		// plus two bytes per moved cell: about 1.8 kB per slave at p=3,
		// against 6.6 kB for a full placement.
		c.BcastRoot(bcast.appendMoves(encodeAssignment(assign), eng.Placement()))

		// The master works its own partition like any slave. Step's
		// evaluation sees the previous iteration's merged solution, so μ
		// tracking covers every merge with no duplicate evaluation.
		eng.DomainFromRows(assign[0])
		opt.report(eng.Step())

		// Merge the slaves' moves into the master's placement.
		for r := 1; r < c.Size(); r++ {
			if len(assign[r]) == 0 {
				continue // dead this iteration: its rows went to survivors
			}
			data, _, err := c.TryRecv(r, tagT2Moves)
			if err != nil {
				// The rank died between broadcast and merge. Its rows
				// simply keep their pre-iteration positions (still a
				// valid placement) and move to survivors next round.
				continue
			}
			if err := bcast.apply(data, eng.Placement(), assign[r]); err != nil {
				c.DropRank(r, fmt.Errorf("parallel: corrupt move patch: %w", err))
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
	c.BcastRoot(nil) // stop signal, skipping dead ranks

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
	res.FailedRanks = failedRankList(c)
	return res, nil
}

const tagT2Moves = 20

func typeIISlave(prob *core.Problem, c Comm) error {
	// Each slave starts from the canonical start, as the master does, and
	// draws selection randomness from its own stream.
	eng := prob.EngineFromReference(uint64(1000 + c.Rank()))
	patch := newSlotPatch(eng.Placement())
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
		place := eng.Placement()
		if err := patch.apply(rest, place, nil); err != nil {
			return fmt.Errorf("parallel: rank %d patching placement: %w", c.Rank(), err)
		}
		patch.snapshot(place)
		// A corrupt assignment must fail the rank, not panic it: rows out
		// of range would index past the placement in DomainFromRows.
		if err := validateAssignment(assign, place.NumRows()); err != nil {
			return fmt.Errorf("parallel: rank %d received a bad assignment: %w", c.Rank(), err)
		}
		myRows := assign[c.Rank()]
		eng.DomainFromRows(myRows)
		eng.Step()
		c.Send(0, tagT2Moves, patch.appendMoves(nil, place))
	}
}

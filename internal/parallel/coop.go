package parallel

import (
	"fmt"

	"simevo/internal/core"
	"simevo/internal/layout"
	"simevo/internal/mpi"
)

// ExchangeFunc is handed to cooperating workers: it posts the worker's
// current best to the central store, polls the store, and returns the
// store's strictly better solution if one exists (adopted == true).
type ExchangeFunc func(mu float64, best *layout.Placement) (adopted bool, storeMu float64, store *layout.Placement)

// CoopOptions configures a generic cooperating parallel search: rank 0 is
// a central best-solution store; every other rank runs Worker, which may
// call its ExchangeFunc any number of times and finally returns its best.
// This is the asynchronous-multiple-Markov-chain scheme of the paper's
// reference [1], reused by Type III SimE and by the parallel SA baseline.
type CoopOptions struct {
	Procs          int
	Net            *mpi.NetModel
	MeasureCompute *bool
	Worker         func(rank int, exchange ExchangeFunc) (float64, *layout.Placement, error)
}

// RunSim runs rank on every rank of a simulated cluster and returns rank
// 0's result with the cluster's makespan and per-rank accounting. Rank 0
// must return a non-nil result. It is the one simulated-cluster driver:
// the Type I/II/III strategies, the cooperating search and the parallel
// metaheuristics in internal/metaheur all run through it.
func RunSim(prob *core.Problem, opt Options, rank func(Comm, *core.Problem, Options) (*Result, error)) (*Result, error) {
	cl := mpi.NewCluster(opt.Procs, mpi.Options{Net: opt.net(), MeasureCompute: opt.measure()})
	var out *Result
	err := cl.Run(func(c *mpi.Comm) error {
		res, err := rank(c, prob, opt)
		if c.Rank() == 0 {
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

// RunCoop executes the cooperating search and returns the store's final
// best over all workers.
func RunCoop(prob *core.Problem, opt CoopOptions) (*Result, error) {
	if opt.Procs < 3 {
		return nil, fmt.Errorf("parallel: cooperative search needs >= 3 ranks, got %d", opt.Procs)
	}
	o := Options{Procs: opt.Procs, Net: opt.Net, MeasureCompute: opt.MeasureCompute}
	out, err := RunSim(prob, o, func(c Comm, prob *core.Problem, _ Options) (*Result, error) {
		if c.Rank() == 0 {
			return typeIIIStore(prob, c.(*mpi.Comm))
		}
		// A corrupt store reply is an error of this rank, not a process
		// crash: remember it, let the worker finish on its own solution,
		// and surface it at the rank boundary after the Done handshake.
		var exchErr error
		var seq uint64
		exchange := func(mu float64, best *layout.Placement) (bool, float64, *layout.Placement) {
			if exchErr != nil {
				return false, 0, nil
			}
			seq++
			c.Send(0, tagT3Post, encodePost(seq, mu, best))
			c.Send(0, tagT3Poll, encodePollReq(mu))
			news, _ := c.Recv(0, tagT3News)
			storeMu, place, err := decodeNews(prob, news)
			if err != nil {
				exchErr = fmt.Errorf("parallel: rank %d: corrupt store news: %w", c.Rank(), err)
				return false, 0, nil
			}
			if place == nil {
				return false, 0, nil
			}
			return true, storeMu, place
		}
		mu, best, err := opt.Worker(c.Rank(), exchange)
		if err != nil {
			return nil, err
		}
		// Coop workers track their own budgets; the store's iteration
		// count is unused here (Iters is cleared below).
		c.Send(0, tagT3Done, encodeDone(0, mu, best, &searcherStats{}))
		return nil, exchErr
	})
	if err != nil {
		return nil, err
	}
	eng := prob.EngineFrom(out.Best.Clone(), nil)
	eng.EvaluateCosts()
	out.BestCosts = eng.Costs()
	out.Iters = 0
	return out, nil
}

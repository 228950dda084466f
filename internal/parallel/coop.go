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

// NewCoopCluster builds a raw virtual cluster from Options, for parallel
// strategies implemented outside this package (the Type I parallel tabu
// search in internal/metaheur uses it).
func NewCoopCluster(o Options) (*mpi.Cluster, error) {
	if o.Procs < 2 {
		return nil, fmt.Errorf("parallel: cluster needs >= 2 ranks, got %d", o.Procs)
	}
	return mpi.NewCluster(o.Procs, mpi.Options{Net: o.net(), MeasureCompute: o.measure()}), nil
}

// RunCoop executes the cooperating search and returns the store's final
// best over all workers.
func RunCoop(prob *core.Problem, opt CoopOptions) (*Result, error) {
	if opt.Procs < 3 {
		return nil, fmt.Errorf("parallel: cooperative search needs >= 3 ranks, got %d", opt.Procs)
	}
	o := Options{Procs: opt.Procs, Net: opt.Net, MeasureCompute: opt.MeasureCompute}
	cl := mpi.NewCluster(opt.Procs, mpi.Options{Net: o.net(), MeasureCompute: o.measure()})
	var out *Result
	err := cl.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			res, err := typeIIIStore(prob, c, nil, 100)
			if err != nil {
				return err
			}
			out = res
			return nil
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
			c.Send(0, tagT3Poll, encodePollReq(0, mu))
			news, _ := c.Recv(0, tagT3News)
			_, _, storeMu, place, err := decodeNews(prob, news)
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
			return err
		}
		// Coop workers track their own budgets; the store's iteration
		// count is unused here (Iters is cleared below).
		c.Send(0, tagT3Done, encodeDone(0, mu, best, &searcherStats{}))
		return exchErr
	})
	if err != nil {
		return nil, err
	}
	out.VirtualTime = cl.MakeSpan()
	out.RankStats = cl.Stats()
	if out.Best != nil {
		eng := prob.EngineFrom(out.Best.Clone(), nil)
		eng.EvaluateCosts()
		out.BestCosts = eng.Costs()
	}
	out.Iters = 0
	return out, nil
}

package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"simevo/internal/core"
	"simevo/internal/parallel"
	"simevo/internal/transport"
)

// Real-cluster dispatch: the service (or simevo-run's -cluster mode) is
// rank 0 of a transport.Group; registered simevo-worker processes hold the
// remaining ranks. The job spec itself is the setup message — rank 0
// broadcasts the normalized spec as JSON, every rank builds the identical
// core.Problem from it (benchmark circuits regenerate deterministically,
// uploaded netlists travel inline), and then the ordinary strategy protocol
// runs unchanged over the wire.

// specOptions assembles the parallel options a normalized spec implies.
func specOptions(ctx context.Context, spec Spec, progress core.Progress) parallel.Options {
	opt := parallel.Options{
		Procs:        spec.Procs,
		TargetMu:     spec.TargetMu,
		Retry:        spec.Retry,
		Diversify:    spec.Diversify,
		SyncExchange: spec.SyncExchange,
		Context:      ctx,
		Progress:     progress,
	}
	if spec.Pattern == "random" {
		opt.Pattern = parallel.NewRandomPattern(spec.Seed)
	}
	return opt
}

// runRank dispatches one rank of a parallel strategy over a transport.
func runRank(t transport.Transport, spec Spec, prob *core.Problem, opt parallel.Options) (*parallel.Result, error) {
	switch spec.Strategy {
	case StrategyTypeI:
		return parallel.TypeIRank(t, prob, opt)
	case StrategyTypeII:
		return parallel.TypeIIRank(t, prob, opt)
	case StrategyTypeIII:
		return parallel.TypeIIIRank(t, prob, opt)
	}
	return nil, fmt.Errorf("jobs: strategy %q cannot run on a cluster", spec.Strategy)
}

// RunSpecOn executes a parallel job as rank 0 of an existing transport
// group: it ships the spec to every worker rank, runs the master role, and
// returns the converted result. The context cancels the master
// cooperatively (Type I/II wind their slaves down via the stop broadcast;
// Type III searchers run out their iteration budget on the workers — a
// real cluster has no shared memory to signal through).
func RunSpecOn(ctx context.Context, t transport.Transport, spec Spec, progress core.Progress) (*Result, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding spec: %w", err)
	}
	prob, err := buildProblem(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res *parallel.Result
	err = transport.Run(t, func(t transport.Transport) error {
		t.Bcast(0, blob)
		var err error
		res, err = runRank(t, spec, prob, specOptions(ctx, spec, progress))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.VirtualTime = t.Elapsed()
	return convertParallel(res, prob, start), nil
}

// ServeRank executes one worker rank: receive the spec broadcast, build
// the problem, and run this rank's role in the strategy. It is the
// function simevo-worker passes to transport.Worker.Serve.
func ServeRank(ctx context.Context, t transport.Transport) error {
	if cn, ok := t.(transport.CancelNotifier); ok {
		// The coordinator's out-of-band cancel frame reaches this rank even
		// while it is deep in the strategy protocol; surface it as context
		// cancellation so the rank winds down at the next iteration check.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cn.CancelRequested():
				cancel()
			case <-done:
			}
		}()
	}
	blob := t.Bcast(0, nil)
	var spec Spec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("jobs: decoding spec broadcast: %w", err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		return err
	}
	prob, err := buildProblem(norm)
	if err != nil {
		return err
	}
	_, err = runRank(t, norm, prob, specOptions(ctx, norm, nil))
	return err
}

// convertParallel maps a strategy result into the service result shape.
func convertParallel(res *parallel.Result, prob *core.Problem, start time.Time) *Result {
	return &Result{
		Degraded:      len(res.FailedRanks) > 0,
		FailedRanks:   res.FailedRanks,
		BestMu:        res.BestMu,
		Wire:          res.BestCosts.Wire,
		Power:         res.BestCosts.Power,
		Delay:         res.BestCosts.Delay,
		Congest:       res.BestCosts.Congest,
		Iters:         res.Iters,
		RuntimeMS:     msSince(start),
		VirtualTimeMS: float64(res.VirtualTime) / float64(time.Millisecond),
		Placement:     placementRows(res.Best, prob.Ckt),
	}
}

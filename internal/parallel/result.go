package parallel

import (
	"context"
	"sort"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/telemetry"
)

// Options configures a parallel run.
type Options struct {
	// Procs is the number of cluster ranks (the paper's p). Type III
	// requires Procs >= 3 (one rank is the central store).
	Procs int
	// Net is the interconnect model (default mpi.FastEthernet).
	Net *mpi.NetModel
	// MeasureCompute charges real compute time to the virtual clocks
	// (default true; disable only in deterministic tests).
	MeasureCompute *bool
	// TargetMu, when positive, records the virtual time at which the best
	// quality first reached the target (the paper's quality-normalized
	// timing for Tables 2-3) and stops the run early.
	TargetMu float64
	// Pattern is the Type II row allocation pattern (default FixedPattern).
	Pattern RowPattern
	// Retry is the Type III retry threshold (iterations without
	// improvement before consulting the central store).
	Retry int
	// Diversify gives each Type III searcher a different allocation order
	// — the search-diversification idea of the paper's Section 7.
	Diversify bool
	// SyncExchange selects the paper's blocking Type III exchange: a
	// searcher that consults the store waits for its news. The default is
	// asynchronous: the searcher keeps iterating until the news arrives.
	// Either way a strictly better store solution is adopted outright, and
	// both modes speak the same post/poll/news frames — see typeiii.go. The
	// blocking mode is the paper's protocol and the reference
	// TestAsyncExchangeSpeedup times the asynchronous mode against.
	SyncExchange bool
	// Context cancels a run cooperatively: the master (Type I/II) or every
	// searcher (Type III) checks it between iterations, winds the cluster
	// down cleanly, and the best-so-far result is returned. Nil never
	// cancels.
	Context context.Context
	// Tolerate is kept only so existing callers that assign it still
	// compile: masters always degrade when a real transport loses a rank
	// (see Result.FailedRanks).
	//
	// Deprecated: ignored.
	Tolerate bool
	// Progress, when non-nil, receives per-iteration statistics from the
	// master rank (Type I/II) or the first searcher rank (Type III, whose
	// Mu is that searcher's, not the global best). Callbacks run on a
	// cluster rank goroutine; they must be fast and safe for concurrent
	// use.
	Progress core.Progress
}

// cancelled reports whether the run's context has been cancelled.
func (o Options) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// report invokes the progress callback when one is configured.
func (o Options) report(st core.IterStats) {
	if o.Progress != nil {
		o.Progress(st)
	}
}

func (o Options) net() mpi.NetModel {
	if o.Net != nil {
		return *o.Net
	}
	return mpi.FastEthernet()
}

func (o Options) measure() bool {
	if o.MeasureCompute != nil {
		return *o.MeasureCompute
	}
	return true
}

// TrafficStats is implemented by transports that account per-rank traffic
// themselves (the TCP transport's coordinator Group). The simulated
// cluster's accounting comes from mpi.Cluster.Stats instead, attached by
// the RunType* drivers.
type TrafficStats interface {
	RankStats() []mpi.RankStats
}

// attachRankStats fills res.RankStats from the transport's own accounting
// when it keeps any — the rank-0 entry points call it so real-cluster runs
// report bytes/messages per rank just like simulated ones.
func attachRankStats(c any, res *Result) {
	if res == nil || res.RankStats != nil {
		return
	}
	if ts, ok := c.(TrafficStats); ok {
		res.RankStats = ts.RankStats()
	}
}

// Result reports a parallel run.
type Result struct {
	BestMu    float64
	BestCosts fuzzy.Costs
	Best      *layout.Placement
	Iters     int
	// VirtualTime is the cluster makespan: measured compute plus modeled
	// communication, maximized over ranks.
	VirtualTime time.Duration
	// TimeToTarget is the master's virtual time when BestMu first reached
	// Options.TargetMu; valid when ReachedTarget.
	TimeToTarget  time.Duration
	ReachedTarget bool
	RankStats     []mpi.RankStats
	MuTrace       []float64
	// FailedRanks lists the ranks lost or expelled mid-run, ascending.
	// Only a real transport loses ranks: the master finishes on the
	// survivors instead of failing. Empty on clean and simulated runs.
	FailedRanks []int
	// Telemetry is the master engine's per-run counter snapshot (zero
	// for Type III, whose rank 0 is the central store and runs no
	// engine; each searcher's counters feed the process registry).
	Telemetry telemetry.EngineSnapshot
	// Exchange reports the Type III exchange protocol's work: posts,
	// adoptions, the store's final epoch, and the per-exchange overhead
	// distribution.
	// Nil for strategies without a central store.
	Exchange *ExchangeStats
}

// ExchangeStats aggregates the Type III exchange activity of one run.
// Posted/Adopted sum over searchers; Searchers carries the store's
// per-rank post counts. RoundNs are the timed exchange segments — in
// blocking mode one poll-to-adoption round each, in the async mode the
// non-blocking machinery actually paid per exchange (post encode/send,
// poll issue, news decode and adoption).
type ExchangeStats struct {
	Posted  int
	Adopted int
	// Deprecated: always zero; kept only because bench/ reads it.
	Rejected int
	// Deprecated: always zero; kept only because bench/ reads it.
	Restores int
	// StoreEpoch is the store's final best-solution epoch: the number of
	// times the global best improved.
	StoreEpoch uint64
	RoundNs    []int64
	Searchers  []SearcherRate
}

// SearcherRate is the store's view of one searcher's productivity.
type SearcherRate struct {
	Rank  int
	Posts int // improvements posted
}

// P50RoundNs returns the median timed exchange segment (0 when none were
// recorded).
func (s *ExchangeStats) P50RoundNs() int64 {
	if s == nil || len(s.RoundNs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), s.RoundNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

package parallel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"simevo/internal/core"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/telemetry"
	"simevo/internal/transport"
)

// Type III protocol tags: the searchers' (and cooperating workers') frames
// to the central store, and the store's one answer.
const (
	tagT3Done = 33 + iota // searcher -> store: final best + exchange stats
	tagT3Post             // searcher -> store: sequenced improvement post (fire-and-forget)
	tagT3Poll             // searcher -> store: 8-byte best-so-far poll
	tagT3News             // store -> searcher: optionally a better solution
)

// RunTypeIII executes the parallel-search strategy of the paper's Figure 6,
// modeled on asynchronous multiple-Markov-chain parallel SA [1]: rank 0 is
// a central store of the best solution found so far; every other rank runs
// an independent search from the same starting solution with a different
// random stream.
//
// A searcher that improves posts the solution to the store without
// waiting; a searcher that stalls for Options.Retry iterations sends an
// 8-byte poll, and the store answers with a news frame. A strictly better
// store solution is adopted outright. By default the exchange is
// asynchronous: the searcher keeps iterating until the news arrives.
// Options.SyncExchange selects the paper's blocking exchange over the same
// frames: the searcher waits for the news.
//
// On the simulated cluster the async protocol is deterministic: polls
// participate in the virtual-time schedule (mpi.Comm.Poll), so for a
// fixed seed the exchange interleaving — and the best μ — is bitwise
// reproducible. On the TCP transport news arrival follows wall-clock
// order and runs differ; the store's best is monotonic either way.
func RunTypeIII(prob *core.Problem, opt Options) (*Result, error) {
	if opt.Procs < 3 {
		return nil, fmt.Errorf("parallel: Type III needs >= 3 ranks (one is the central store), got %d", opt.Procs)
	}
	return RunSim(prob, opt, TypeIIIRank)
}

// TypeIIIRank executes this rank's role in a Type III run over an existing
// transport — the entry point worker processes use on a real cluster. Rank
// 0 (the central store) returns the result with the winner's cost breakdown
// recovered; searcher ranks return (nil, nil) on success.
func TypeIIIRank(c Comm, prob *core.Problem, opt Options) (*Result, error) {
	if c.Size() < 3 {
		return nil, fmt.Errorf("parallel: Type III needs >= 3 ranks (one is the central store), got %d", c.Size())
	}
	retry := opt.Retry
	if retry <= 0 {
		retry = 100
	}
	if c.Rank() != 0 {
		return nil, typeIIISearcher(prob, c, retry, opt, opt.SyncExchange)
	}
	root, err := rootComm(c)
	if err != nil {
		return nil, err
	}
	out, err := typeIIIStore(prob, root)
	if err != nil {
		return nil, err
	}
	// The store tracks only μ; recover the cost breakdown of the winner.
	eng := prob.EngineFrom(out.Best.Clone(), nil)
	eng.EvaluateCosts()
	out.BestCosts = eng.Costs()
	attachRankStats(c, out)
	return out, nil
}

// --- wire formats ---

// searcherStats is one searcher's exchange accounting, shipped to the
// store inside the Done frame. Posts are counted by the store itself.
type searcherStats struct {
	adopted int
	roundNs []int64
}

// encodeDone is the tagT3Done wire format: the executed iteration count
// (u64), the final solution, and the exchange-stats blob — the u32
// adoption count, a u32 sample count, and the timed exchange segments.
func encodeDone(iters int, mu float64, place *layout.Placement, st *searcherStats) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(iters))
	buf = append(buf, encodeSolution(mu, place)...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.adopted))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.roundNs)))
	for _, ns := range st.roundNs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ns))
	}
	return buf
}

// decodeDoneStats parses the exchange-stats blob that follows the
// solution in a Done frame.
func decodeDoneStats(rest []byte) (searcherStats, error) {
	var st searcherStats
	if len(rest) < 8 {
		return st, fmt.Errorf("parallel: done stats blob too short (%d bytes)", len(rest))
	}
	st.adopted = int(binary.LittleEndian.Uint32(rest[0:]))
	n := uint64(binary.LittleEndian.Uint32(rest[4:]))
	rest = rest[8:]
	if uint64(len(rest)) != 8*n {
		return st, fmt.Errorf("parallel: done stats blob: %d samples announced, %d bytes present", n, len(rest))
	}
	st.roundNs = make([]int64, n)
	for i := range st.roundNs {
		st.roundNs[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return st, nil
}

// decodeDone parses a tagT3Done frame (see encodeDone).
func decodeDone(prob *core.Problem, data []byte) (iters int, mu float64, place *layout.Placement, st searcherStats, err error) {
	if len(data) < 8 {
		return 0, 0, nil, st, fmt.Errorf("parallel: done payload too short (%d bytes)", len(data))
	}
	iters = int(binary.LittleEndian.Uint64(data))
	mu, place, rest, err := decodeSolution(prob, data[8:])
	if err != nil {
		return 0, 0, nil, st, err
	}
	st, err = decodeDoneStats(rest)
	return iters, mu, place, st, err
}

// solution wire format: 8-byte μ followed by the placement encoding.
func encodeSolution(mu float64, place *layout.Placement) []byte {
	buf := make([]byte, 8, 8+place.NumRows()*4)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(mu))
	return append(buf, place.Encode()...)
}

// decodeSolution decodes a solution from the front of data and returns
// the bytes after it.
func decodeSolution(prob *core.Problem, data []byte) (float64, *layout.Placement, []byte, error) {
	if len(data) < 8 {
		return 0, nil, nil, fmt.Errorf("parallel: solution payload too short (%d bytes)", len(data))
	}
	mu := math.Float64frombits(binary.LittleEndian.Uint64(data))
	place, rest, err := layout.DecodePlacementPrefix(prob.Ckt, data[8:])
	if err != nil {
		return 0, nil, nil, err
	}
	return mu, place, rest, nil
}

// post wire format: 8-byte per-searcher sequence number, then a solution.
func encodePost(seq uint64, mu float64, place *layout.Placement) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, seq)
	return append(buf, encodeSolution(mu, place)...)
}

// poll wire format: the searcher's current best μ — 8 bytes, no
// placement. The store already holds every improvement the searcher
// posted, so a consultation never re-sends one.
func encodePollReq(mu float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(mu))
}

// news wire format: a has-solution flag (u8) followed by the solution when
// the store's best strictly beats the poller's μ.
func encodeNews(solution []byte) []byte {
	if len(solution) == 0 {
		return []byte{0}
	}
	return append([]byte{1}, solution...)
}

// decodeNews parses a news frame; place is nil when the store's best does
// not beat the poller's.
func decodeNews(prob *core.Problem, data []byte) (mu float64, place *layout.Placement, err error) {
	if len(data) < 1 {
		return 0, nil, errors.New("parallel: news payload empty")
	}
	if data[0] == 0 {
		return 0, nil, nil
	}
	mu, place, _, err = decodeSolution(prob, data[1:])
	return mu, place, err
}

// --- store ---

// searcherEntry is the store's record of one searcher rank's posts.
type searcherEntry struct {
	lastSeq uint64
	posts   int
}

// typeIIIStore runs the central best-solution store on rank 0: it merges
// sequenced posts, answers every 8-byte poll with a news frame, and
// collects each rank's Done. Blocking and asynchronous searchers and the
// cooperating workers of coop.go all speak this one frame set; they differ
// only in when they read the news. A searcher that dies or sends a corrupt
// frame is dropped and counts as done (its contributions so far are kept),
// and any later frame from it is ignored; the run errors only if every
// searcher is lost before any solution arrived.
func typeIIIStore(prob *core.Problem, c FaultComm) (*Result, error) {
	bestMu := -1.0
	var bestData []byte // encoded solution, kept serialized for cheap replies
	var best *layout.Placement
	var epoch uint64 // bumps every time the global best improves
	iters := 0       // max iterations any searcher executed (cancellation may cut runs short)
	table := make(map[int]*searcherEntry)
	exch := &ExchangeStats{}

	// improve installs a new global best and advances the epoch.
	improve := func(mu float64, place *layout.Placement, data []byte) {
		bestMu, best, bestData = mu, place, data
		epoch++
		telemetry.ExchangeStoreEpoch.Set(int64(epoch))
	}

	// finished holds the searchers counted toward completion: their Done
	// arrived, or they were lost or dropped. Each counts exactly once, and
	// the store reads no further frame from it.
	finished := make(map[int]bool)
	drop := func(src int, err error) {
		c.DropRank(src, err)
		finished[src] = true
	}

	for len(finished) < c.Size()-1 {
		data, st, err := c.TryRecv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			var re *transport.RankError
			if errors.As(err, &re) {
				finished[re.Rank] = true
				continue
			}
			return nil, err
		}
		if finished[st.Source] {
			continue
		}
		switch st.Tag {
		case tagT3Post:
			// Async improvement post: per-searcher sequence numbers make
			// the merge idempotent under reordering or degraded re-sends —
			// a post at or below the searcher's high-water mark is stale
			// and dropped; the best-μ comparison keeps the store monotonic
			// regardless.
			if len(data) < 8 {
				drop(st.Source, fmt.Errorf("parallel: post payload too short (%d bytes)", len(data)))
				continue
			}
			seq := binary.LittleEndian.Uint64(data)
			e := table[st.Source]
			if e == nil {
				e = &searcherEntry{}
				table[st.Source] = e
			}
			if seq <= e.lastSeq {
				continue
			}
			e.lastSeq = seq
			mu, place, _, err := decodeSolution(prob, data[8:])
			if err != nil {
				drop(st.Source, fmt.Errorf("parallel: corrupt post frame: %w", err))
				continue
			}
			e.posts++
			exch.Posted++
			if mu > bestMu {
				improve(mu, place, data[8:])
			}
		case tagT3Poll:
			if len(data) < 8 {
				drop(st.Source, fmt.Errorf("parallel: poll payload too short (%d bytes)", len(data)))
				continue
			}
			mu := math.Float64frombits(binary.LittleEndian.Uint64(data))
			var solution []byte
			if bestMu > mu {
				solution = bestData
			}
			if err := c.TrySend(st.Source, tagT3News, encodeNews(solution)); err != nil {
				finished[st.Source] = true
			}
		case tagT3Done:
			// Done wire format: 8-byte iteration count, the solution, then
			// the exchange-stats blob. A corrupt Done still ends the rank.
			n, mu, place, sst, err := decodeDone(prob, data)
			if err != nil {
				drop(st.Source, fmt.Errorf("parallel: corrupt done frame: %w", err))
				continue
			}
			finished[st.Source] = true
			if n > iters {
				iters = n
			}
			exch.Adopted += sst.adopted
			exch.RoundNs = append(exch.RoundNs, sst.roundNs...)
			if mu > bestMu {
				improve(mu, place, encodeSolution(mu, place))
			}
		default:
			drop(st.Source, fmt.Errorf("parallel: store received unexpected tag %d", st.Tag))
		}
	}

	if best == nil {
		return nil, fmt.Errorf("parallel: every searcher failed before reporting a solution")
	}
	exch.StoreEpoch = epoch
	for r := 1; r < c.Size(); r++ {
		if e, ok := table[r]; ok {
			exch.Searchers = append(exch.Searchers, SearcherRate{Rank: r, Posts: e.posts})
		}
	}
	return &Result{
		BestMu:      bestMu,
		Best:        best,
		Iters:       iters,
		FailedRanks: failedRankList(c),
		Exchange:    exch,
	}, nil
}

// --- searcher ---

// typeIIISearcher runs one searcher rank. Every strict improvement of its
// best is posted to the store with a sequence number; after retry
// iterations without one it polls the store with its best μ and adopts a
// strictly better store solution outright. With block set it waits for
// the store's news — the paper's exchange. Otherwise it keeps iterating
// and picks up the news with a non-blocking poll whenever it has arrived.
func typeIIISearcher(prob *core.Problem, c Comm, retry int, opt Options, block bool) error {
	// Every searcher starts from the canonical reference placement with its
	// own random stream (the paper's Table 4 setup).
	eng := prob.EngineFromReference(uint64(c.Rank()))
	if opt.Diversify {
		// Section 7's diversification proposal: a different allocation
		// function per thread steers the searches apart.
		eng.SetAllocOrder(core.AllocOrder((c.Rank() - 1) % 3))
	}

	var (
		stats       searcherStats
		seq         uint64 // post sequence number (high-water mark at the store)
		count       int    // iterations without improvement since the last event
		pollPending bool   // a poll is in flight; await its news before sending another
	)

	// The timed exchange segments: in blocking mode one poll-to-adoption
	// round each; otherwise every piece of exchange work the search pays
	// for (post, poll, news handling).
	observe := func(start time.Time) {
		ns := int64(time.Since(start))
		if block {
			telemetry.ExchangeRoundType3Ns.Observe(ns)
		} else {
			telemetry.ExchangeAsyncType3Ns.Observe(ns)
		}
		stats.roundNs = append(stats.roundNs, ns)
	}
	post := func() {
		start := time.Now()
		seq++
		c.Send(0, tagT3Post, encodePost(seq, eng.BestMu(), eng.BestPlacement()))
		if !block {
			observe(start)
		}
		telemetry.ExchangePosted.Inc()
	}
	news := func(data []byte) error {
		mu, place, err := decodeNews(prob, data)
		if err != nil {
			return fmt.Errorf("parallel: rank %d: corrupt news frame: %w", c.Rank(), err)
		}
		if place != nil && mu > eng.BestMu() {
			eng.SetPlacement(place) // freshly decoded: the engine takes it
			stats.adopted++
			telemetry.ExchangeAdopted.Inc()
		}
		return nil
	}

	// Every searcher checks the context (there is no master to wind the
	// others down); rank 1 doubles as the progress reporter.
	iters := 0
	for ; iters < prob.Cfg.MaxIters && !opt.cancelled(); iters++ {
		prevBest := eng.BestMu()
		st := eng.Step()
		if c.Rank() == 1 {
			opt.report(st)
		}

		if eng.BestMu() > prevBest {
			post()
			count = 0
			continue
		}
		count++

		if pollPending {
			if data, _, ok := c.Poll(0, tagT3News); ok {
				pollPending = false
				start := time.Now()
				if err := news(data); err != nil {
					return err
				}
				observe(start)
				count = 0
			}
			continue
		}
		if count > retry {
			start := time.Now()
			c.Send(0, tagT3Poll, encodePollReq(eng.BestMu()))
			if block {
				data, _ := c.Recv(0, tagT3News)
				if err := news(data); err != nil {
					return err
				}
			} else {
				pollPending = true
			}
			observe(start)
			count = 0
		}
	}
	if eng.BestPlacement() == nil {
		// Cancelled before the first iteration: evaluate the starting
		// solution so the final report carries a real placement.
		eng.EvaluateCosts()
	}
	c.Send(0, tagT3Done, encodeDone(iters, eng.BestMu(), eng.BestPlacement(), &stats))
	return nil
}

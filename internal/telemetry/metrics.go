package telemetry

import (
	"net"
	"net/http"
	"strconv"
	"time"
)

// Process-wide metric set, aggregated across the process; bench/ reads
// these, not the per-run snapshots. EngineSnapshot.Publish is the only
// writer of the engine family (Engine*, AllocSub*, Scan*, Congest*,
// TimingRebuilds); the other layers update their metrics directly.
var (
	// Engine phase timers (core.Engine.Step / SelectAndAllocate / Run).
	EnginePhaseEvalNs   = Default.Histogram("simevo_engine_phase_ns", "Engine phase wall time per iteration in nanoseconds.", "phase", "evaluate")
	EnginePhaseSelectNs = Default.Histogram("simevo_engine_phase_ns", "Engine phase wall time per iteration in nanoseconds.", "phase", "select")
	EnginePhaseAllocNs  = Default.Histogram("simevo_engine_phase_ns", "Engine phase wall time per iteration in nanoseconds.", "phase", "allocate")

	EngineIterations = Default.Counter("simevo_engine_iterations_total", "Completed SimE iterations (selection + allocation) across all engines.")

	// Allocation sub-phase timers (trial prep, vacancy scan, commit).
	AllocSubPrepNs   = Default.Histogram("simevo_engine_alloc_subphase_ns", "Allocation sub-phase wall time per iteration in nanoseconds.", "sub", "prep")
	AllocSubScanNs   = Default.Histogram("simevo_engine_alloc_subphase_ns", "Allocation sub-phase wall time per iteration in nanoseconds.", "sub", "scan")
	AllocSubCommitNs = Default.Histogram("simevo_engine_alloc_subphase_ns", "Allocation sub-phase wall time per iteration in nanoseconds.", "sub", "commit")

	// Cost-evaluation shape: which EvaluateCosts branch ran. Every
	// evaluation rebuilds the net lengths in full, so the engine writes
	// neither EngineEvalsIncremental nor EngineDirtyNets; they stay
	// registered because the benchmark module reads them.
	EngineEvalsIncremental = Default.Counter("simevo_engine_evals_total", "Cost evaluations by kind.", "kind", "incremental")
	EngineEvalsRebuild     = Default.Counter("simevo_engine_evals_total", "Cost evaluations by kind.", "kind", "rebuild")
	EngineEvalsReference   = Default.Counter("simevo_engine_evals_total", "Cost evaluations by kind.", "kind", "reference")
	EngineDirtyNets        = Default.Histogram("simevo_engine_dirty_nets", "Dirty-net batch size per incremental cost evaluation.")

	// Goodness cache. The engine recomputes every cell's goodness on every
	// evaluation and no longer writes these; they stay registered because
	// the benchmark module reads them.
	GoodnessCacheHits   = Default.Counter("simevo_engine_goodness_cache_total", "Goodness-cache lookups by result.", "result", "hit")
	GoodnessCacheMisses = Default.Counter("simevo_engine_goodness_cache_total", "Goodness-cache lookups by result.", "result", "miss")

	// ScanBest prune statistics (allocation inner loop).
	ScanVacancies    = Default.Counter("simevo_scan_vacancies_total", "Vacancy candidates visited by ScanBest.")
	ScanPrunedBBox   = Default.Counter("simevo_scan_pruned_total", "ScanBest candidates pruned, by mechanism.", "by", "bbox_precheck")
	ScanPrunedSuffix = Default.Counter("simevo_scan_pruned_total", "ScanBest candidates pruned, by mechanism.", "by", "suffix_bound")
	ScanBailedExact  = Default.Counter("simevo_scan_pruned_total", "ScanBest candidates pruned, by mechanism.", "by", "exact_prefix")
	// bucket_skip counts candidates never visited at all: vacancies inside
	// whole rows or bucket tails the sharded scan discarded wholesale.
	ScanSkippedBucket = Default.Counter("simevo_scan_pruned_total", "ScanBest candidates pruned, by mechanism.", "by", "bucket_skip")
	ScanRowsVisited   = Default.Counter("simevo_scan_rows_visited_total", "Row buckets entered by the sharded vacancy scan.")
	ScanScored        = Default.Counter("simevo_scan_scored_total", "ScanBest candidates fully scored (survived every prune).")

	// cost.Pipeline evaluations: Full recomputes (every engine evaluation)
	// vs wire/power summation-tree folds (the SA/TS swap path) vs folds
	// whose dirty batch crossed the n/4 crossover and recombined in full.
	CostFullEvals          = Default.Counter("simevo_cost_evals_total", "cost.Objective evaluations by path.", "path", "full")
	CostDirtyEvals         = Default.Counter("simevo_cost_evals_total", "cost.Objective evaluations by path.", "path", "dirty")
	CostDirtyFallbackEvals = Default.Counter("simevo_cost_evals_total", "cost.Objective evaluations by path.", "path", "dirty_fallback")

	// The engines' congest.Grid congestion objective.
	CongestBinUpdates = Default.Counter("simevo_congest_bin_updates_total", "Congestion-grid bin writes (net contribution adds).")
	CongestRebuilds   = Default.Counter("simevo_congest_rebuilds_total", "Full congestion-grid rebuilds.")
	CongestPeak       = Default.Gauge("simevo_congest_peak_demand", "Peak bin routing demand of the last congestion evaluation.")
	CongestOverflow   = Default.Gauge("simevo_congest_overflow", "Summed bin demand above twice the average, last congestion evaluation.")

	// The engines' timing.STA. Every evaluation is a full rebuild;
	// TimingConeCells is no longer written and stays registered because
	// the benchmark module reads it.
	TimingConeCells = Default.Histogram("simevo_timing_cone_cells", "Cells recomputed per incremental STA update (dirty-cone size).")
	TimingRebuilds  = Default.Counter("simevo_timing_rebuilds_total", "Full STA rebuilds.")

	// Transport framing (all TCP connections in the process).
	TransportSentFrames = Default.Counter("simevo_transport_frames_total", "TCP transport frames, by direction.", "dir", "sent")
	TransportRecvFrames = Default.Counter("simevo_transport_frames_total", "TCP transport frames, by direction.", "dir", "recv")
	TransportSentBytes  = Default.Counter("simevo_transport_bytes_total", "TCP transport bytes (incl. frame headers), by direction.", "dir", "sent")
	TransportRecvBytes  = Default.Counter("simevo_transport_bytes_total", "TCP transport bytes (incl. frame headers), by direction.", "dir", "recv")

	// Transport liveness (heartbeat frames are out-of-band: they never
	// enter rank traffic accounting).
	HeartbeatPingsSent  = Default.Counter("simevo_transport_heartbeat_frames_total", "Heartbeat frames by kind.", "kind", "ping_sent")
	HeartbeatPingsRecv  = Default.Counter("simevo_transport_heartbeat_frames_total", "Heartbeat frames by kind.", "kind", "ping_recv")
	HeartbeatPongsSent  = Default.Counter("simevo_transport_heartbeat_frames_total", "Heartbeat frames by kind.", "kind", "pong_sent")
	HeartbeatPongsRecv  = Default.Counter("simevo_transport_heartbeat_frames_total", "Heartbeat frames by kind.", "kind", "pong_recv")
	HeartbeatTimeouts   = Default.Counter("simevo_transport_heartbeat_timeouts_total", "Connections declared dead after a heartbeat-silence window.")
	ClusterRankFailures = Default.Counter("simevo_cluster_rank_failures_total", "Cluster ranks lost mid-job (connection loss, heartbeat timeout, protocol abandonment).")

	// Parallel-strategy exchange rounds (one iteration of the Type I/II
	// master loop, or one store round-trip for a Type III searcher).
	ExchangeRoundType1Ns = Default.Histogram("simevo_exchange_round_ns", "Parallel-strategy exchange round latency in nanoseconds.", "strategy", "type1")
	ExchangeRoundType2Ns = Default.Histogram("simevo_exchange_round_ns", "Parallel-strategy exchange round latency in nanoseconds.", "strategy", "type2")
	ExchangeRoundType3Ns = Default.Histogram("simevo_exchange_round_ns", "Parallel-strategy exchange round latency in nanoseconds.", "strategy", "type3")

	// Asynchronous Type III exchange protocol (post/poll/news). The round
	// histogram above measures a searcher's blocking store round-trip in
	// the synchronous protocol; the async histogram measures only the
	// exchange machinery a searcher actually pays (encode/post, poll
	// issue, news decode and adoption) — there is no blocking round to
	// time.
	ExchangeAsyncType3Ns = Default.Histogram("simevo_exchange_round_ns", "Parallel-strategy exchange round latency in nanoseconds.", "strategy", "type3_async")

	ExchangePosted  = Default.Counter("simevo_exchange_posted_total", "Searcher improvements posted to the Type III store.")
	ExchangeAdopted = Default.Counter("simevo_exchange_adopted_total", "Store solutions adopted by a searcher.")
	// Deprecated: always zero; kept only because bench/ reads it.
	ExchangeRejected = Default.Counter("simevo_exchange_rejected_total", "Always zero: searchers adopt a better store solution outright.")
	// Deprecated: always zero; kept only because bench/ reads it.
	SpeculationRestores = Default.Counter("simevo_exchange_speculation_restores_total", "Always zero: searchers adopt a better store solution outright.")
	ExchangeStoreEpoch  = Default.Gauge("simevo_exchange_store_epoch", "Monotonic epoch of the Type III store's best solution (last run on this process).")

	// Service (simevo-serve job manager + SSE).
	JobsSubmitted  = Default.Counter("simevo_jobs_submitted_total", "Jobs accepted by the service (including cache hits).")
	JobsCacheHits  = Default.Counter("simevo_jobs_cache_total", "Job result-cache lookups by outcome.", "result", "hit")
	JobsCacheMiss  = Default.Counter("simevo_jobs_cache_total", "Job result-cache lookups by outcome.", "result", "miss")
	JobsDone       = Default.Counter("simevo_jobs_finished_total", "Jobs finished, by terminal state.", "state", "done")
	JobsFailed     = Default.Counter("simevo_jobs_finished_total", "Jobs finished, by terminal state.", "state", "failed")
	JobsCanceled   = Default.Counter("simevo_jobs_finished_total", "Jobs finished, by terminal state.", "state", "canceled")
	JobQueueDepth  = Default.Gauge("simevo_jobs_queue_depth", "Jobs waiting in the service queue.")
	JobsRunning    = Default.Gauge("simevo_jobs_running", "Jobs currently executing.")
	JobsRetries    = Default.Counter("simevo_jobs_retries_total", "Failed-job re-runs scheduled by Spec.MaxRetries.")
	JobsReplayed   = Default.Counter("simevo_jobs_journal_replays_total", "Unfinished jobs re-enqueued from the journal at startup.")
	SSESubscribers = Default.Gauge("simevo_sse_subscribers", "Open SSE event-stream subscriptions.")
)

// RankTraffic returns the per-rank transport counters (messages and
// bytes relayed to / received from that rank's worker connection).
// Counters are created on first use, so only ranks that actually join
// a group appear in the exposition.
func RankTraffic(rank int) (sentMsgs, sentBytes, recvMsgs, recvBytes *Counter) {
	r := strconv.Itoa(rank)
	sentMsgs = Default.Counter("simevo_transport_rank_messages_total", "Messages exchanged with a worker rank, by direction.", "rank", r, "dir", "sent")
	sentBytes = Default.Counter("simevo_transport_rank_bytes_total", "Payload bytes exchanged with a worker rank, by direction.", "rank", r, "dir", "sent")
	recvMsgs = Default.Counter("simevo_transport_rank_messages_total", "Messages exchanged with a worker rank, by direction.", "rank", r, "dir", "recv")
	recvBytes = Default.Counter("simevo_transport_rank_bytes_total", "Payload bytes exchanged with a worker rank, by direction.", "rank", r, "dir", "recv")
	return sentMsgs, sentBytes, recvMsgs, recvBytes
}

// ServeDebug starts an HTTP listener on addr serving GET /metrics and
// the pprof endpoints, and returns the bound address (useful with
// ":0"). The server runs until the process exits.
func ServeDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	AttachDebug(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

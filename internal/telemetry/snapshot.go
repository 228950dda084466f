package telemetry

// EngineSnapshot is an engine's per-run tally: the engine accumulates it
// with plain arithmetic on its own goroutine, and reads the STA and
// congestion-grid counts into it from those layers. Its operator Profile
// derives from the phase times, Result.Telemetry is a copy, and Publish
// makes the process-wide registry a derived view of the snapshots.
type EngineSnapshot struct {
	Iterations uint64 `json:"iterations"`

	EvalNs   uint64 `json:"eval_ns"`
	SelectNs uint64 `json:"select_ns"`
	AllocNs  uint64 `json:"alloc_ns"`

	// Allocation sub-phase split: per-cell trial preparation (capture +
	// bucket build + CompileTrials), the vacancy scans themselves, and the
	// commit/bookkeeping tail. Sums to ~AllocNs.
	AllocPrepNs   uint64 `json:"alloc_prep_ns"`
	AllocScanNs   uint64 `json:"alloc_scan_ns"`
	AllocCommitNs uint64 `json:"alloc_commit_ns"`

	Evals            uint64 `json:"evals"`
	IncrementalEvals uint64 `json:"incremental_evals"`
	FullRebuilds     uint64 `json:"full_rebuilds"`
	DirtyNets        uint64 `json:"dirty_nets"`

	ScanVacancies     uint64 `json:"scan_vacancies"`
	ScanPrunedBBox    uint64 `json:"scan_pruned_bbox"`
	ScanPrunedSuffix  uint64 `json:"scan_pruned_suffix"`
	ScanBailedExact   uint64 `json:"scan_bailed_exact"`
	ScanScored        uint64 `json:"scan_scored"`
	ScanSkippedBucket uint64 `json:"scan_skipped_bucket"`
	ScanRowsVisited   uint64 `json:"scan_rows_visited"`

	// Full STA rebuilds (one per evaluation with delay active: the engine
	// recomputes every objective).
	TimingRebuilds uint64 `json:"timing_rebuilds"`

	// Congestion grid activity (zero unless the objective set includes
	// Congest): individual bin writes and full grid rebuilds.
	CongestBinUpdates uint64 `json:"congest_bin_updates"`
	CongestRebuilds   uint64 `json:"congest_rebuilds"`
}

// Publish adds the progress since prev, the snapshot last published, to
// the engine-family globals; it is their only writer, and allocates
// nothing. Counters get the differences. The engine publishes after every
// evaluation and iteration, so each histogram gets one sample per
// iteration (phase and sub-phase times), per timed evaluation phase
// (EvalNs advanced), and per incremental evaluation (its dirty nets).
// reference counts full evaluations as reference, not rebuild, ones; the
// congestion gauges take congPeak and congOverflow when the grid rebuilt.
func (s *EngineSnapshot) Publish(prev *EngineSnapshot, reference bool, congPeak, congOverflow float64) {
	if s.Iterations != prev.Iterations {
		EngineIterations.Add(s.Iterations - prev.Iterations)
		EnginePhaseSelectNs.Observe(int64(s.SelectNs - prev.SelectNs))
		EnginePhaseAllocNs.Observe(int64(s.AllocNs - prev.AllocNs))
		AllocSubPrepNs.Observe(int64(s.AllocPrepNs - prev.AllocPrepNs))
		AllocSubScanNs.Observe(int64(s.AllocScanNs - prev.AllocScanNs))
		AllocSubCommitNs.Observe(int64(s.AllocCommitNs - prev.AllocCommitNs))
	}
	if s.EvalNs != prev.EvalNs {
		EnginePhaseEvalNs.Observe(int64(s.EvalNs - prev.EvalNs))
	}
	if s.IncrementalEvals != prev.IncrementalEvals {
		EngineEvalsIncremental.Add(s.IncrementalEvals - prev.IncrementalEvals)
		EngineDirtyNets.Observe(int64(s.DirtyNets - prev.DirtyNets))
	}
	if reference {
		EngineEvalsReference.Add(s.FullRebuilds - prev.FullRebuilds)
	} else {
		EngineEvalsRebuild.Add(s.FullRebuilds - prev.FullRebuilds)
	}
	ScanVacancies.Add(s.ScanVacancies - prev.ScanVacancies)
	ScanPrunedBBox.Add(s.ScanPrunedBBox - prev.ScanPrunedBBox)
	ScanPrunedSuffix.Add(s.ScanPrunedSuffix - prev.ScanPrunedSuffix)
	ScanBailedExact.Add(s.ScanBailedExact - prev.ScanBailedExact)
	ScanScored.Add(s.ScanScored - prev.ScanScored)
	ScanSkippedBucket.Add(s.ScanSkippedBucket - prev.ScanSkippedBucket)
	ScanRowsVisited.Add(s.ScanRowsVisited - prev.ScanRowsVisited)
	TimingRebuilds.Add(s.TimingRebuilds - prev.TimingRebuilds)
	CongestBinUpdates.Add(s.CongestBinUpdates - prev.CongestBinUpdates)
	if s.CongestRebuilds != prev.CongestRebuilds {
		CongestRebuilds.Add(s.CongestRebuilds - prev.CongestRebuilds)
		CongestPeak.Set(int64(congPeak))
		CongestOverflow.Set(int64(congOverflow))
	}
}

package core

import (
	"runtime"

	"simevo/internal/wire"
)

// Parallel vacancy scanning for the allocation operator, running on the
// engine's shared worker pool (pool.go).
//
// For one selected cell, the trials against all free vacancies are
// independent: the row buckets are partitioned into contiguous row ranges
// and each range is scored through its own read-only wire.View (trial
// scoring never mutates the incremental state; the View carries the only
// scratch). The reduction reproduces the serial tie-breaking — the
// lowest-index vacancy with the strictly smallest score wins — so parallel
// and serial scans pick identical slots and the search trajectory is
// unchanged.

// allocScanMinVacancies is the free-vacancy count below which a cell's scan
// is not worth the per-cell synchronization. Re-measured for the bucketed
// row scan (BenchmarkAllocScanBreakEven sweeps the thresholds on a given
// host): the sharded scan skips dominated regions wholesale, so the serial
// scan does far less work per vacancy than the flat walk the previous
// floor of 160 was tuned for, and the per-cell Batch synchronization
// amortizes later — the floor moves up to 256. Variable so tests can force
// the parallel path on small circuits.
var allocScanMinVacancies = 256

// flushMinDirtyNets is the dirty-net batch size below which the committed-
// length flush stays serial: per-net re-estimation is cheap (most nets take
// the bbox fast path), so small batches lose more to the Batch barrier than
// the fan-out wins. Variable so tests can force the parallel flush on small
// circuits.
var flushMinDirtyNets = 256

type scanResult struct {
	idx   int
	score float64
}

// scanWorkers resolves the configured alloc-scan fan-out (0 = auto).
func (e *Engine) scanWorkers() int {
	w := e.prob.Cfg.AllocWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	return w
}

// evalWorkers resolves the configured goodness-evaluation fan-out.
// Unlike AllocWorkers, 0 keeps evaluation serial: the serial path is the
// reference mode the trajectory invariants are stated against, and the
// parallel path must match it bitwise (tested) before anyone opts in.
func (e *Engine) evalWorkers() int {
	if w := e.prob.Cfg.EvalWorkers; w > 1 {
		return w
	}
	return 1
}

// ensurePool returns the engine's shared worker pool, created on first use
// with room for the wider of the two parallel phases.
func (e *Engine) ensurePool() *Pool {
	if e.pool == nil {
		size := e.scanWorkers()
		if w := e.evalWorkers(); w > size {
			size = w
		}
		e.pool = NewPool(size)
		e.slotViews = make([]*wire.View, e.pool.Size())
		e.slotGoods = make([][]float64, e.pool.Size())
		e.slotScan = make([]wire.ScanStats, e.pool.Size())
	}
	return e.pool
}

// slotView returns the per-slot read-only evaluator view, created lazily.
// Slot-keyed state needs no locking: a batch assigns each slot to exactly
// one worker, and batches are serialized by the blocking Batch call.
func (e *Engine) slotView(slot int) *wire.View {
	if e.slotViews[slot] == nil {
		e.slotViews[slot] = e.inc.View()
	}
	return e.slotViews[slot]
}

// scanCell scores every free, width-feasible vacancy for the cell prepared
// by prepTrial (feasibility via the engine's per-cell rowOK table) across
// the worker pool — each worker scans a contiguous range of the row
// buckets — and returns the serial winner: the lowest-index vacancy among
// those with the strictly smallest score. rows is the bucket row count.
func (e *Engine) scanCell(workers, rows int, bound0 float64) (int, float64) {
	pool := e.ensurePool()
	// The pool (and the slot-keyed state) is sized once; if GOMAXPROCS
	// grows mid-process the auto worker count can exceed it, and Batch
	// would clamp the chunk count — the reduction below must read exactly
	// the slots that ran.
	if workers > pool.Size() {
		workers = pool.Size()
	}
	if cap(e.scanRes) < workers {
		e.scanRes = make([]scanResult, workers)
	}
	e.scanRes = e.scanRes[:workers]
	e.scanBound0 = bound0
	pool.Batch(e.runCtx, workers, rows, e.allocKern)

	// Each chunk reports its own lowest-index strict minimum, but the row
	// partition does not order vacancy indices across chunks, so the
	// reduction breaks score ties on the index explicitly — reproducing
	// the serial scan's first-minimum winner exactly.
	best, bestScore := -1, 0.0
	for _, r := range e.scanRes {
		if r.idx < 0 {
			continue
		}
		if best < 0 || r.score < bestScore || (r.score == bestScore && r.idx < best) {
			best, bestScore = r.idx, r.score
		}
	}
	return best, bestScore
}

// scanChunk is the alloc-scan kernel body for one row range of the buckets.
func (e *Engine) scanChunk(slot, lo, hi int) {
	best, score := e.trials.ScanBestRows(e.slotView(slot), e.vacs, &e.buckets,
		e.rowOK, lo, hi, e.scanBound0, &e.slotScan[slot])
	e.scanRes[slot] = scanResult{idx: best, score: score}
}

// flushChunk is the dirty-net flush kernel: re-estimate one contiguous
// range of the incremental state's dirty list through this slot's view
// (per-worker evaluator scratch for the nets that need a full collection).
func (e *Engine) flushChunk(slot, lo, hi int) {
	e.inc.FlushChunk(e.slotView(slot), lo, hi)
}

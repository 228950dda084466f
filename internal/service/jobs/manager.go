package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"simevo/internal/core"
	"simevo/internal/telemetry"
	"simevo/internal/transport"
)

// Manager errors surfaced to the API layer.
var (
	ErrNotFound  = errors.New("jobs: job not found")
	ErrQueueFull = errors.New("jobs: submission queue is full")
	ErrClosed    = errors.New("jobs: manager is closed")
)

// Options configures a Manager. Zero values select sensible defaults.
type Options struct {
	// Workers is the worker-pool size: the number of placement runs
	// executing concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; further
	// submissions fail with ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; negative
	// disables caching (default 128).
	CacheSize int
	// MaxJobs bounds the in-memory job store; the oldest terminal jobs
	// are evicted past it (default 1024).
	MaxJobs int
	// Hub, when non-nil, is the cluster coordinator whose registered
	// simevo-worker processes serve jobs submitted with transport "tcp".
	// Nil rejects such jobs at submission. The manager does not own the
	// hub; the caller closes it.
	Hub *transport.Hub
	// Journal, when non-nil, is the append-only job log. Every submission
	// and state transition is recorded, and NewManager replays the log:
	// finished jobs reappear as terminal history (warming the result
	// cache), unfinished ones are re-enqueued under their original IDs.
	// The manager does not own the journal; the caller closes it after
	// Close.
	Journal *Journal
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
}

// Stats is a point-in-time account of the manager, served by /healthz.
type Stats struct {
	Workers   int `json:"workers"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Stored    int `json:"stored"`
	Cached    int `json:"cached"`
	// ClusterWorkers is the number of idle simevo-worker processes
	// registered with the cluster hub (-1 when no hub is configured).
	ClusterWorkers int `json:"cluster_workers"`
	// ClusterWorkerDetail expands ClusterWorkers with each parked
	// worker's address and lifetime traffic; omitted without a hub.
	ClusterWorkerDetail []transport.WorkerDetail `json:"cluster_workers_detail,omitempty"`
}

// Manager owns the job store, the result cache, and the worker pool.
type Manager struct {
	opt Options

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond // signaled when pending grows or the manager closes
	closed  bool
	seq     int
	pending []*Job // FIFO of queued jobs; cancellation removes entries
	jobs    map[string]*Job
	order   []string // insertion order, for listing and eviction
	cache   *lruCache
}

// NewManager starts a manager with Options.Workers pool goroutines.
func NewManager(opt Options) *Manager {
	opt.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opt:        opt,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		cache:      newLRUCache(opt.CacheSize),
	}
	m.cond = sync.NewCond(&m.mu)
	if opt.Journal != nil {
		// Replay before the pool starts: re-enqueued jobs must already be
		// pending when the first worker looks at the queue.
		m.restore(opt.Journal.Replayed())
	}
	for i := 0; i < opt.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// journal appends one record to the configured journal, if any. Append
// errors (full disk, yanked volume) are logged, not propagated: losing
// durability must not take the in-memory queue down.
func (m *Manager) journal(rec journalRecord) {
	if m.opt.Journal == nil {
		return
	}
	if err := m.opt.Journal.append(rec); err != nil {
		log.Printf("jobs: journal append failed: %v", err)
	}
}

// restore rebuilds the manager's state from replayed journal records.
// Runs once from NewManager, before the worker pool starts.
func (m *Manager) restore(recs []journalRecord) {
	type hist struct {
		spec     *Spec
		created  time.Time
		started  time.Time
		finished time.Time
		state    State
		result   *Result
		errMsg   string
	}
	byID := make(map[string]*hist)
	var order []string
	for i := range recs {
		rec := &recs[i]
		switch rec.Type {
		case "submit":
			if rec.ID == "" || rec.Spec == nil {
				continue
			}
			if _, dup := byID[rec.ID]; dup {
				continue
			}
			byID[rec.ID] = &hist{spec: rec.Spec, created: rec.Time}
			order = append(order, rec.ID)
		case "start":
			if h := byID[rec.ID]; h != nil {
				h.started = rec.Time
			}
		case "finish":
			if h := byID[rec.ID]; h != nil && h.state == "" {
				h.state = rec.State
				h.finished = rec.Time
				h.result = rec.Result
				h.errMsg = rec.Error
			}
		}
	}
	replayed := 0
	for _, id := range order {
		h := byID[id]
		var n int
		if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		spec := *h.spec
		if !h.state.Terminal() {
			// A job that will run gets the checks Submit applies: the
			// journal may predate a cap, or be corrupt. A spec that fails
			// them is restored as a failed job and never runs.
			norm, err := spec.Normalize()
			if err != nil {
				h.state, h.finished, h.result, h.errMsg = StateFailed, time.Now(), nil, err.Error()
				m.journal(journalRecord{Type: "finish", ID: id, Time: h.finished, State: StateFailed, Error: h.errMsg})
			} else {
				spec = norm
			}
		}
		job := &Job{id: id, spec: spec, fp: spec.Fingerprint(), created: h.created}
		if spec.Bench != "" {
			sum := sha256.Sum256([]byte(spec.Bench))
			job.benchDigest = "sha256:" + hex.EncodeToString(sum[:8])
		}
		if h.state.Terminal() {
			job.state = h.state
			job.started = h.started
			job.finished = h.finished
			job.result = h.result
			job.err = h.errMsg
			if job.spec.Bench != "" {
				job.spec.Bench = job.benchDigest
			}
			if h.state == StateDone && h.result != nil &&
				!h.result.Degraded && !h.result.TransportFallback {
				m.cache.put(job.fp, *h.result)
			}
			m.storeLocked(job)
			continue
		}
		// Submitted (or even started) but never finished: the process died
		// under it. Re-enqueue under the original id; a half-done run
		// restarts from scratch — placement runs are idempotent.
		job.state = StateQueued
		m.pending = append(m.pending, job)
		m.storeLocked(job)
		replayed++
		telemetry.JobsReplayed.Inc()
	}
	telemetry.JobQueueDepth.Set(int64(len(m.pending)))
	if replayed > 0 {
		log.Printf("jobs: journal replay re-enqueued %d unfinished job(s)", replayed)
	}
}

// Close cancels every running job, drains the pool, and rejects further
// submissions. It blocks until all workers exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}

// Submit validates, caches-checks, and enqueues a job, returning its
// initial view. A cache hit returns an already-done job carrying the
// cached result.
func (m *Manager) Submit(spec Spec) (View, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return View{}, err
	}
	fp := norm.Fingerprint()

	if norm.Transport == TransportTCP && m.opt.Hub == nil {
		return View{}, fmt.Errorf("jobs: transport %q needs the service started with a cluster listener", norm.Transport)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return View{}, ErrClosed
	}
	job := &Job{
		spec:    norm,
		fp:      fp,
		created: time.Now(),
	}
	if norm.Bench != "" {
		sum := sha256.Sum256([]byte(norm.Bench))
		job.benchDigest = "sha256:" + hex.EncodeToString(sum[:8])
	}
	if res, ok := m.cache.get(fp); ok {
		telemetry.JobsSubmitted.Inc()
		telemetry.JobsCacheHits.Inc()
		res.Cached = true
		m.seq++
		job.id = fmt.Sprintf("j-%06d", m.seq)
		job.state = StateDone
		job.finished = job.created
		job.result = &res
		job.spec.Bench = job.benchDigest // payload not needed, keep the digest
		m.storeLocked(job)
		m.journal(journalRecord{Type: "submit", ID: job.id, Time: job.created, Spec: &norm})
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: job.finished, State: StateDone, Result: job.result})
		return job.view(), nil
	}
	if len(m.pending) >= m.opt.QueueDepth {
		return View{}, ErrQueueFull
	}
	telemetry.JobsSubmitted.Inc()
	telemetry.JobsCacheMiss.Inc()
	m.seq++
	job.id = fmt.Sprintf("j-%06d", m.seq)
	job.state = StateQueued
	m.pending = append(m.pending, job)
	telemetry.JobQueueDepth.Set(int64(len(m.pending)))
	m.storeLocked(job)
	m.journal(journalRecord{Type: "submit", ID: job.id, Time: job.created, Spec: &norm})
	m.cond.Signal()
	return job.view(), nil
}

// storeLocked records a job and evicts the oldest terminal jobs past the
// store bound. Callers hold m.mu.
func (m *Manager) storeLocked(job *Job) {
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	if len(m.order) <= m.opt.MaxJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.opt.MaxJobs
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	return job.view(), nil
}

// List returns every stored job in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

// Cancel requests cooperative cancellation. A queued job is finished
// immediately and its queue slot freed; a running job stops within one
// optimizer iteration and keeps its best-so-far result. Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return View{}, ErrNotFound
	}
	job.mu.Lock()
	switch job.state {
	case StateQueued:
		for i, p := range m.pending {
			if p == job {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		telemetry.JobQueueDepth.Set(int64(len(m.pending)))
		telemetry.JobsCanceled.Inc()
		job.cancelReq = true
		job.state = StateCanceled
		job.finished = time.Now()
		if job.spec.Bench != "" {
			job.spec.Bench = job.benchDigest
		}
		job.notifyLocked()
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: job.finished, State: StateCanceled})
	case StateRunning:
		job.cancelReq = true
		if job.cancel != nil {
			job.cancel()
		}
	}
	job.mu.Unlock()
	m.mu.Unlock()
	return job.view(), nil
}

// Subscribe registers for change notifications on a job. The returned
// channel receives a coalesced wakeup whenever progress or state changes;
// read the current view with Get after each wakeup. Call the remover when
// done.
func (m *Manager) Subscribe(id string) (<-chan struct{}, func(), error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch, remove := job.subscribe()
	return ch, remove, nil
}

// Stats reports the pool and store occupancy.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	st := Stats{Workers: m.opt.Workers, Stored: len(jobs), Cached: m.cache.len(), ClusterWorkers: -1}
	if m.opt.Hub != nil {
		st.ClusterWorkerDetail = m.opt.Hub.WorkerDetails()
		st.ClusterWorkers = len(st.ClusterWorkerDetail)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		default:
			st.Completed++
		}
		j.mu.Unlock()
	}
	return st
}

// worker drains the queue until Close. Jobs still pending at Close are
// drained too — runJob finishes them as canceled without building them.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		job := m.pending[0]
		m.pending = m.pending[1:]
		telemetry.JobQueueDepth.Set(int64(len(m.pending)))
		m.mu.Unlock()
		m.runJob(job)
	}
}

// runJob drives one job from queued to a terminal state.
func (m *Manager) runJob(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.cancelReq || job.state != StateQueued {
		// Cancelled while waiting in the queue.
		job.mu.Unlock()
		return
	}
	if ctx.Err() != nil {
		// Manager closing: drop the queued job without building it.
		job.mu.Unlock()
		job.finish(StateCanceled, nil, "")
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: time.Now(), State: StateCanceled})
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.notifyLocked()
	spec := job.spec
	job.mu.Unlock()
	m.journal(journalRecord{Type: "start", ID: job.id, Time: job.started})
	telemetry.JobsRunning.Add(1)
	defer telemetry.JobsRunning.Add(-1)

	total := spec.total()
	progress := core.Progress(func(st core.IterStats) {
		job.setProgress(st.Iter+1, total, st.Mu)
	})
	if spec.isMetaheuristic() {
		// The metaheuristics report 1-based counts already.
		progress = func(st core.IterStats) {
			job.setProgress(st.Iter, total, st.Mu)
		}
	}

	// Retry failed attempts with capped exponential backoff and jitter.
	// Transient cluster trouble — a worker fleet mid-restart, a run that
	// lost every rank — usually clears within a few backoff steps.
	var res *Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = runSpec(ctx, spec, progress, m.opt.Hub)
		if err == nil || ctx.Err() != nil || attempt >= spec.MaxRetries {
			break
		}
		telemetry.JobsRetries.Inc()
		wait := transport.Backoff(attempt+1, retryBackoffBase, retryBackoffMax, rand.Float64)
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	switch {
	case err != nil:
		job.finish(StateFailed, nil, err.Error())
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: time.Now(), State: StateFailed, Error: err.Error()})
	case ctx.Err() != nil:
		// Cooperative cancellation: keep the best-so-far result but do
		// not cache a truncated run.
		job.finish(StateCanceled, res, "")
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: time.Now(), State: StateCanceled, Result: res})
	default:
		if !res.Degraded && !res.TransportFallback {
			// Degraded and fallback results are honest outcomes for this
			// run but not canonical for the spec: do not cache them. The
			// cache fills before the job turns done, so a client that
			// resubmits on seeing done finds the result there.
			m.mu.Lock()
			m.cache.put(job.fp, *res)
			m.mu.Unlock()
		}
		job.finish(StateDone, res, "")
		m.journal(journalRecord{Type: "finish", ID: job.id, Time: time.Now(), State: StateDone, Result: res})
	}
}

// Retry backoff bounds (see transport.Backoff).
const (
	retryBackoffBase = 500 * time.Millisecond
	retryBackoffMax  = 8 * time.Second
)

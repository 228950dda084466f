package transport

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"simevo/internal/mpi"
	"simevo/internal/telemetry"
)

// Hub is the cluster coordinator: it accepts worker connections, parks them
// in a pool after the join handshake, and forms rank Groups on demand. One
// hub serves any number of sequential or concurrent Groups (each worker
// belongs to at most one group at a time).
//
// When constructed with a non-empty join token, the handshake requires
// every worker to present the identical token; the comparison is
// constant-time and a mismatch closes the connection before the worker
// can park. An empty token keeps the hub open (workers must then present
// no token either) — fine on a trusted interconnect, but cross-machine
// deployments should always set one.
type Hub struct {
	ln    net.Listener
	token string
	cfg   Config

	mu     sync.Mutex
	cond   *sync.Cond
	parked []*wconn
	closed bool
}

// Config tunes the failure-detection timings of both TCP endpoints. The
// zero value selects the defaults; a negative duration disables that
// mechanism outright.
type Config struct {
	// JoinTimeout bounds the join handshake: the hub's read of the first
	// frame, and the worker's dial plus handshake write. Default 10s.
	JoinTimeout time.Duration
	// HeartbeatInterval is the hub's ping cadence per worker connection.
	// Workers answer each ping with a pong. Default 3s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence window after which a peer is declared
	// dead even though its connection is still open: the hub expects pongs
	// (or any traffic) within it, the worker expects pings. It must exceed
	// HeartbeatInterval with margin. Default 12s.
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds every frame write, so a peer that stopped reading
	// cannot wedge the writer forever. Default 30s.
	WriteTimeout time.Duration
	// WrapConn, when non-nil, wraps the worker's dialed connection before
	// the handshake — the hook fault-injection tests use to interpose a
	// Chaos conn. Hub-side connections are never wrapped.
	WrapConn func(net.Conn) net.Conn
}

func (c Config) withDefaults() Config {
	if c.JoinTimeout == 0 {
		c.JoinTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 3 * time.Second
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 12 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// dur maps a defaulted Config duration to its effective value: negative
// settings mean "disabled" and collapse to zero.
func dur(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// wconn is one worker connection, alive from join handshake to disconnect.
type wconn struct {
	conn     net.Conn
	r        *bufio.Reader
	w        connWriter
	group    atomic.Pointer[Group]
	rank     int32 // valid while in a group
	dead     atomic.Bool
	reported atomic.Bool // end-of-job notice already counted

	inMsgs   atomic.Int64 // frames read from this worker over its lifetime
	inBytes  atomic.Int64 // payload bytes read from this worker
	lastBeat atomic.Int64 // unix nanos of the last frame read (incl. pongs)
}

// Listen starts a hub on addr ("host:port"; ":0" picks a free port) with
// default failure-detection timings. token is the shared-secret join token
// workers must present ("" leaves the hub open).
func Listen(addr, token string) (*Hub, error) {
	return ListenConfig(addr, token, Config{})
}

// ListenConfig is Listen with explicit failure-detection timings.
func ListenConfig(addr, token string, cfg Config) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewHubConfig(ln, token, cfg), nil
}

// NewHubConfig starts a hub on an existing listener, taking ownership of
// it, with explicit failure-detection timings.
func NewHubConfig(ln net.Listener, token string, cfg Config) *Hub {
	h := &Hub{ln: ln, token: token, cfg: cfg.withDefaults()}
	h.cond = sync.NewCond(&h.mu)
	go h.acceptLoop()
	return h
}

// Addr returns the hub's listen address (useful with ":0").
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// Workers returns the number of parked (joined, idle) workers.
func (h *Hub) Workers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.parked)
}

// WorkerDetail describes one parked worker's connection and lifetime
// traffic as seen from the hub: sent_* is coordinator-to-worker,
// recv_* worker-to-coordinator (payload bytes, framing excluded).
type WorkerDetail struct {
	Addr      string `json:"addr"`
	SentMsgs  int64  `json:"sent_msgs"`
	SentBytes int64  `json:"sent_bytes"`
	RecvMsgs  int64  `json:"recv_msgs"`
	RecvBytes int64  `json:"recv_bytes"`
	// LastBeatMS is the age, in milliseconds, of the last frame read from
	// the worker (heartbeat pongs included) — a live connection under the
	// default config keeps this below the heartbeat interval.
	LastBeatMS float64 `json:"last_beat_ms"`
}

// WorkerDetails reports every parked worker, in park (rank-assignment)
// order — the per-rank expansion behind the /healthz cluster_workers
// count. Workers currently lent to a group are not listed; they
// reappear, totals intact, when the group releases them.
func (h *Hub) WorkerDetails() []WorkerDetail {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WorkerDetail, len(h.parked))
	for i, w := range h.parked {
		out[i] = WorkerDetail{
			Addr:       w.conn.RemoteAddr().String(),
			SentMsgs:   w.w.msgs.Load(),
			SentBytes:  w.w.bytes.Load(),
			RecvMsgs:   w.inMsgs.Load(),
			RecvBytes:  w.inBytes.Load(),
			LastBeatMS: float64(time.Now().UnixNano()-w.lastBeat.Load()) / float64(time.Millisecond),
		}
	}
	return out
}

// Close shuts the hub down: stops accepting, dismisses parked workers, and
// wakes Acquire waiters with an error. Groups already formed keep running.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	parked := h.parked
	h.parked = nil
	h.cond.Broadcast()
	h.mu.Unlock()
	for _, w := range parked {
		w.w.write(frame{tag: tagCtrlBye})
		w.conn.Close()
	}
	return h.ln.Close()
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go h.admit(conn)
	}
}

// admit performs the join handshake — magic prefix plus a constant-time
// token comparison — and parks the worker. A wrong or missing token
// closes the connection without a response, so a probing client learns
// nothing about the configured secret (not even, thanks to the
// constant-time compare, how much of a guess matched).
func (h *Hub) admit(conn net.Conn) {
	w := &wconn{conn: conn, r: bufio.NewReader(conn)}
	w.w.w = conn
	w.w.timeout = dur(h.cfg.WriteTimeout)
	if to := dur(h.cfg.JoinTimeout); to > 0 {
		conn.SetReadDeadline(time.Now().Add(to))
	}
	// Read no more than a matching join can carry: the token check
	// happens after the read, so a longer claim is rejected unread.
	f, err := readFrameMax(w.r, len(joinMagic)+len(h.token))
	ok := err == nil && f.tag == tagCtrlJoin &&
		len(f.data) >= len(joinMagic) && string(f.data[:len(joinMagic)]) == joinMagic
	if ok {
		ok = subtle.ConstantTimeCompare(f.data[len(joinMagic):], []byte(h.token)) == 1
	}
	if !ok {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	w.lastBeat.Store(time.Now().UnixNano())
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.parked = append(h.parked, w)
	h.cond.Broadcast()
	h.mu.Unlock()
	if iv := dur(h.cfg.HeartbeatInterval); iv > 0 {
		go pingLoop(w, iv)
	}
	go h.serveConn(w)
}

// pingLoop probes one worker connection for liveness until the connection
// dies: the worker answers each ping with a pong, refreshing the hub's
// heartbeat read deadline in serveConn. A hung worker stops answering, the
// deadline fires, and the rank is declared dead even though the TCP
// connection never closed.
func pingLoop(w *wconn, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for range t.C {
		if w.dead.Load() {
			return
		}
		if w.w.writeQuiet(frame{tag: tagCtrlPing}) != nil {
			return // the reader notices the broken connection
		}
		telemetry.HeartbeatPingsSent.Inc()
	}
}

// serveConn reads one worker's frames for the connection's whole life,
// dispatching them into whatever group the worker currently belongs to.
// Frames between two workers are relayed here. Each read carries the
// heartbeat-timeout deadline: any frame (data or pong) refreshes it, so a
// worker that hangs — stops reading and writing without closing its socket
// — is detected within one window instead of wedging its group forever.
func (h *Hub) serveConn(w *wconn) {
	hbTimeout := dur(h.cfg.HeartbeatTimeout)
	if dur(h.cfg.HeartbeatInterval) == 0 {
		// Without pings a parked worker is legitimately silent; a read
		// deadline would misread that silence as death.
		hbTimeout = 0
	}
	for {
		if hbTimeout > 0 {
			w.conn.SetReadDeadline(time.Now().Add(hbTimeout))
		}
		f, err := readFrame(w.r)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				telemetry.HeartbeatTimeouts.Inc()
				err = fmt.Errorf("no heartbeat for %v: %w", hbTimeout, err)
			}
			w.dead.Store(true)
			h.unpark(w)
			if g := w.group.Load(); g != nil {
				g.workerLost(w, err)
			}
			w.conn.Close()
			return
		}
		w.lastBeat.Store(time.Now().UnixNano())
		if f.tag == tagCtrlPong {
			telemetry.HeartbeatPongsRecv.Inc()
			continue // out-of-band: no traffic accounting, no dispatch
		}
		w.inMsgs.Add(1)
		w.inBytes.Add(int64(len(f.data)))
		g := w.group.Load()
		switch {
		case g == nil:
			// A parked worker has nothing to say; drop stray frames.
		case f.tag == tagCtrlDone:
			// A failed rank function means the rank abandoned the strategy
			// protocol: mark the rank failed so a master blocked on its
			// traffic aborts (or, in degraded mode, drops it) instead of
			// deadlocking. The connection itself is healthy — the worker
			// re-parks and serves the next job.
			if len(f.data) > 0 && f.data[0] != 0 {
				g.noteFailure(int(w.rank), errors.New("rank reported a failed rank function"))
			}
			g.workerDone(w)
		// Counting precedes delivery so that anything observable through a
		// completed Recv downstream is already in the stats.
		case f.dst == 0:
			g.countFrame(int(w.rank), 0, len(f.data))
			g.in.push(f)
		case f.dst > 0 && f.dst < g.size:
			g.countFrame(int(w.rank), f.dst, len(f.data))
			g.relay(f)
		default:
			g.workerLost(w, fmt.Errorf("transport: rank %d sent frame to invalid rank %d", f.src, f.dst))
		}
	}
}

// unpark removes a worker from the parked pool if present.
func (h *Hub) unpark(w *wconn) {
	h.mu.Lock()
	for i, p := range h.parked {
		if p == w {
			h.parked = append(h.parked[:i], h.parked[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// Acquire blocks until `workers` parked workers are available (or ctx ends)
// and forms a Group of size workers+1 with the caller as rank 0. Ranks are
// assigned in park order and each worker receives a start notice carrying
// its rank and the cluster size.
func (h *Hub) Acquire(ctx context.Context, workers int) (*Group, error) {
	if workers < 1 {
		return nil, fmt.Errorf("transport: Acquire needs >= 1 worker, got %d", workers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() { h.cond.Broadcast() })
	defer stop()

	h.mu.Lock()
	for len(h.parked) < workers && !h.closed && ctx.Err() == nil {
		h.cond.Wait()
	}
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("transport: hub is closed")
	}
	if err := ctx.Err(); err != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: waiting for %d workers (%d joined): %w", workers, len(h.parked), err)
	}
	ws := h.parked[:workers:workers]
	h.parked = append([]*wconn(nil), h.parked[workers:]...)
	h.mu.Unlock()

	g := &Group{
		hub:    h,
		ws:     ws,
		size:   workers + 1,
		start:  time.Now(),
		in:     newInbox(),
		done:   make(chan *wconn, workers),
		stats:  make([]rankCounters, workers+1),
		tel:    make([]rankTelemetry, workers+1),
		failed: make(map[int]error),
	}
	for r := range g.tel {
		t := &g.tel[r]
		t.sentMsgs, t.sentBytes, t.recvMsgs, t.recvBytes = telemetry.RankTraffic(r)
	}
	for i, w := range ws {
		w.rank = int32(i + 1)
		w.reported.Store(false)
		w.group.Store(g)
	}
	// Publish the group before the start notices: a worker's first frame
	// can race the later start writes, and the relay path must be live.
	var payload [8]byte
	for i, w := range ws {
		binary.LittleEndian.PutUint32(payload[0:], uint32(i+1))
		binary.LittleEndian.PutUint32(payload[4:], uint32(g.size))
		if err := w.w.write(frame{dst: i + 1, tag: tagCtrlStart, data: payload[:]}); err != nil {
			g.abort()
			return nil, fmt.Errorf("transport: starting rank %d: %w", i+1, err)
		}
	}
	return g, nil
}

// Group is a formed cluster: rank 0 (the coordinator process) plus one
// connected worker per remaining rank. It implements Transport for rank 0.
type Group struct {
	hub   *Hub
	ws    []*wconn // index = rank-1
	size  int
	start time.Time
	in    *inbox
	done  chan *wconn
	stats []rankCounters  // per rank; see RankStats
	tel   []rankTelemetry // per rank: process-wide registry counters

	failedMu sync.Mutex
	failed   map[int]error // ranks lost this job, with their first cause

	closeOnce sync.Once
}

// rankTelemetry caches one rank's registry counters, resolved once at
// Acquire so countFrame pays no registry lookups. Unlike rankCounters
// (which reset per group), the registry series are process-lifetime
// cumulative across all groups using that rank index — Prometheus
// counter semantics.
type rankTelemetry struct {
	sentMsgs, sentBytes, recvMsgs, recvBytes *telemetry.Counter
}

// rankCounters accumulates one rank's message/byte traffic as observed at
// the coordinator (atomic: the strategy goroutine and the per-connection
// reader goroutines count concurrently).
type rankCounters struct {
	sentMsgs, sentBytes, recvMsgs, recvBytes atomic.Int64
}

// countFrame records one delivered frame from rank src to rank dst.
// Control frames (job lifecycle) are not counted; collective traffic is,
// matching the virtual cluster's accounting.
func (g *Group) countFrame(src, dst, n int) {
	g.stats[src].sentMsgs.Add(1)
	g.stats[src].sentBytes.Add(int64(n))
	g.stats[dst].recvMsgs.Add(1)
	g.stats[dst].recvBytes.Add(int64(n))
	g.tel[src].sentMsgs.Inc()
	g.tel[src].sentBytes.Add(uint64(n))
	g.tel[dst].recvMsgs.Inc()
	g.tel[dst].recvBytes.Add(uint64(n))
}

// RankStats reports per-rank traffic accounting — the real-transport
// equivalent of mpi.Cluster.Stats. Bytes and message counts cover every
// data and collective frame that crossed the coordinator (rank 0's own
// sends and receives included); a worker's local self-sends never reach
// the wire and are not observed. Clock is the group's wall-clock age for
// every rank; Compute stays zero (real ranks do not report compute time),
// so Comm carries the whole clock.
func (g *Group) RankStats() []mpi.RankStats {
	elapsed := g.Elapsed()
	out := make([]mpi.RankStats, g.size)
	for r := range out {
		c := &g.stats[r]
		out[r] = mpi.RankStats{
			Clock:     elapsed,
			Comm:      elapsed,
			MsgsSent:  int(c.sentMsgs.Load()),
			BytesSent: int(c.sentBytes.Load()),
			MsgsRecv:  int(c.recvMsgs.Load()),
			BytesRecv: int(c.recvBytes.Load()),
		}
	}
	return out
}

// Rank implements Transport (the coordinator is always rank 0).
func (g *Group) Rank() int { return 0 }

// Size implements Transport.
func (g *Group) Size() int { return g.size }

// Elapsed implements Transport: wall time since the group formed.
func (g *Group) Elapsed() time.Duration { return time.Since(g.start) }

// Send implements Transport: TrySend, panicking with *Fatal on failure.
func (g *Group) Send(dst, tag int, data []byte) {
	if err := g.TrySend(dst, tag, data); err != nil {
		panic(&Fatal{Err: err})
	}
}

// TrySend posts a message to dst like Send, but reports a failed (or
// just-failing) destination as a *RankError instead of panicking — the
// primitive degraded masters build on. Sends to already-failed ranks are
// counted like ordinary sends and then skipped, so a fault-free run and a
// faulty one emit identical traffic statistics for the surviving ranks. A
// send to rank 0 itself is a local enqueue and cannot fail.
func (g *Group) TrySend(dst, tag int, data []byte) error {
	if dst < 0 || dst >= g.size {
		return fmt.Errorf("send to invalid rank %d", dst)
	}
	g.countFrame(0, dst, len(data))
	if dst == 0 {
		cp := make([]byte, len(data))
		copy(cp, data)
		g.in.push(frame{src: 0, dst: 0, tag: tag, data: cp})
		return nil
	}
	g.failedMu.Lock()
	err := g.failed[dst]
	g.failedMu.Unlock()
	if err != nil {
		return err
	}
	w := g.ws[dst-1]
	if werr := w.w.write(frame{src: 0, dst: dst, tag: tag, data: data}); werr != nil {
		g.workerLost(w, werr)
		return &RankError{Rank: dst, Err: fmt.Errorf("send: %w", werr)}
	}
	return nil
}

// TryRecv blocks like Recv but returns an error instead of panicking when
// the group is poisoned or the awaited rank fails. A wildcard receive
// (mpi.AnySource) surfaces each failed rank once, as a *RankError.
func (g *Group) TryRecv(src, tag int) ([]byte, mpi.Status, error) {
	return g.in.recvErr(src, tag)
}

// BcastRoot performs rank 0's half of a broadcast to every live rank —
// the degraded master's replacement for Bcast. Failed ranks are skipped;
// a send that fails mid-broadcast records the rank (FailedRanks) and the
// broadcast continues. On a fault-free run the emitted frames are
// identical to Bcast's.
func (g *Group) BcastRoot(data []byte) {
	for dst := 1; dst < g.size; dst++ {
		_ = g.TrySend(dst, tagBcast, data)
	}
}

// GatherRoot performs rank 0's half of a gather over live ranks: entry r
// is nil when rank r had failed (before or during the wait); entry 0 is
// the root's own payload. On a fault-free run the traffic is identical to
// Gather's root half.
func (g *Group) GatherRoot(own []byte) [][]byte {
	out := make([][]byte, g.size)
	cp := make([]byte, len(own))
	copy(cp, own)
	out[0] = cp
	for r := 1; r < g.size; r++ {
		data, _, err := g.in.recvErr(r, tagGather)
		if err != nil {
			continue
		}
		out[r] = data
	}
	return out
}

// Cancel sends an out-of-band soft-cancel frame to every live worker: the
// remote rank's CancelRequested channel closes, and a cooperative rank
// function stops at its next iteration check. The job protocol is left
// intact — ranks still report done and re-park.
func (g *Group) Cancel() {
	for _, w := range g.ws {
		if w.dead.Load() {
			continue
		}
		_ = w.w.writeQuiet(frame{dst: int(w.rank), tag: tagCtrlCancel, data: []byte{0}})
	}
}

// DropRank expels a live rank from the current job. The master records it
// failed: sends to it are skipped, receives naming it fail once its queued
// frames are read, and a wildcard receive reports the failure once. Frames
// the rank sent before the cancel landed are still delivered to rank 0, so
// the caller must ignore them. The worker is told to abandon the job with
// a hard cancel: its rank function aborts, reports a failed status, and
// the worker survives to serve the next job. Degraded masters use it when
// a rank's frames arrive corrupt. Dropping rank 0 or an out-of-range rank
// is a no-op, and an already-failed rank keeps its first cause.
func (g *Group) DropRank(rank int, err error) {
	if rank <= 0 || rank >= g.size {
		return
	}
	g.noteFailure(rank, err)
	if w := g.ws[rank-1]; !w.dead.Load() {
		_ = w.w.writeQuiet(frame{dst: rank, tag: tagCtrlCancel, data: []byte{1}})
	}
}

// Recv implements Transport.
func (g *Group) Recv(src, tag int) ([]byte, mpi.Status) { return g.in.recv(src, tag) }

// Poll is the non-blocking Recv (see Transport.Poll).
func (g *Group) Poll(src, tag int) ([]byte, mpi.Status, bool) { return g.in.pollRecv(src, tag) }

// Bcast implements Transport.
func (g *Group) Bcast(root int, data []byte) []byte { return bcast(g, root, data) }

// Gather implements Transport.
func (g *Group) Gather(root int, data []byte) [][]byte { return gather(g, root, data) }

// Barrier implements Transport.
func (g *Group) Barrier() { barrier(g) }

// relay forwards a worker-to-worker frame through the hub.
func (g *Group) relay(f frame) {
	w := g.ws[f.dst-1]
	if err := w.w.write(f); err != nil {
		g.workerLost(w, err)
	}
}

// Interrupt poisons rank 0's inbox: a master blocked in Recv aborts with a
// *Fatal carrying err. The workers and their connections are untouched —
// pair with Release (or Close) as usual. Interrupting a group whose run
// already finished is harmless. Callers use it to break a wedged run (a
// stalled worker, a cancelled job past its cooperative grace period).
func (g *Group) Interrupt(err error) {
	g.in.fail(fmt.Errorf("interrupted: %w", err))
}

// workerDone records a worker's end-of-job notice exactly once per job.
func (g *Group) workerDone(w *wconn) {
	if w.reported.CompareAndSwap(false, true) {
		g.done <- w // capacity len(g.ws); dedup keeps this non-blocking
	}
}

// workerLost marks a member rank dead after its connection failed: rank
// 0's receives awaiting that rank abort with a *Fatal-wrapped *RankError,
// while traffic from the surviving ranks keeps flowing (degraded masters
// rely on this to finish the run on the survivors).
func (g *Group) workerLost(w *wconn, err error) {
	w.dead.Store(true)
	g.noteFailure(int(w.rank), fmt.Errorf("connection: %w", err))
	g.workerDone(w) // unblock Release/Close waiting on the worker
}

// noteFailure records a rank failure exactly once and propagates it to the
// inbox so blocked receives naming the rank abort.
func (g *Group) noteFailure(rank int, err error) {
	re := &RankError{Rank: rank, Err: err}
	g.failedMu.Lock()
	_, dup := g.failed[rank]
	if !dup {
		g.failed[rank] = re
	}
	g.failedMu.Unlock()
	if !dup {
		telemetry.ClusterRankFailures.Inc()
	}
	g.in.failRank(rank, re)
}

// FailedRanks returns the ranks lost so far this job — connection
// failures, heartbeat timeouts, failed rank functions, DropRank — keyed to
// the first recorded cause (always a *RankError).
func (g *Group) FailedRanks() map[int]error {
	g.failedMu.Lock()
	defer g.failedMu.Unlock()
	out := make(map[int]error, len(g.failed))
	for r, err := range g.failed {
		out[r] = err
	}
	return out
}

// drain waits until every worker reported done (or died), bounded by the
// timeout, so job frames cannot leak into a worker's next assignment.
func (g *Group) drain(timeout time.Duration) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := make(map[*wconn]bool)
	for len(seen) < len(g.ws) {
		select {
		case w := <-g.done:
			seen[w] = true
		case <-deadline.C:
			for _, w := range g.ws {
				if !seen[w] {
					g.workerLost(w, errors.New("transport: worker did not finish"))
					seen[w] = true
				}
			}
		}
	}
}

// Release dissolves the group and parks surviving workers back in the hub
// pool for the next job. It waits for every worker's end-of-job notice
// first; a worker that does not report within the grace period is dropped.
func (g *Group) Release() {
	g.closeOnce.Do(func() {
		g.drain(30 * time.Second)
		for _, w := range g.ws {
			w.group.Store(nil)
			if w.dead.Load() {
				w.conn.Close()
				continue
			}
			if w.w.write(frame{tag: tagCtrlEnd}) != nil {
				w.conn.Close()
				continue
			}
			g.hub.mu.Lock()
			if g.hub.closed {
				g.hub.mu.Unlock()
				w.conn.Close()
				continue
			}
			g.hub.parked = append(g.hub.parked, w)
			g.hub.cond.Broadcast()
			g.hub.mu.Unlock()
		}
	})
}

// Close dissolves the group and dismisses its workers (they are told to
// shut down and their connections are closed). Use Release to return the
// workers to the pool instead.
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		g.drain(10 * time.Second)
		for _, w := range g.ws {
			w.group.Store(nil)
			w.w.write(frame{tag: tagCtrlBye})
			w.conn.Close()
		}
		// A Close while rank 0 is still blocked in Recv (hard abort) must
		// unblock it; after a completed run nobody reads the inbox and the
		// poison is inert.
		g.in.fail(errors.New("group closed"))
	})
}

// abort dissolves a group that never started (no drain: no worker will
// report done), dismissing its workers.
func (g *Group) abort() {
	g.closeOnce.Do(func() {
		for _, w := range g.ws {
			w.group.Store(nil)
			w.w.write(frame{tag: tagCtrlBye})
			w.conn.Close()
		}
		g.in.fail(errors.New("group aborted"))
	})
}

// Worker is the worker-process side of the TCP transport: one connection to
// the hub, serving rank assignments until dismissed.
type Worker struct {
	conn net.Conn
	r    *bufio.Reader
	w    connWriter
	cfg  Config
}

// Join dials the hub at addr and performs the join handshake with default
// timings, presenting the shared-secret token (which must equal the
// hub's; "" for an open hub). A rejected token surfaces as a closed
// connection on the first Serve read, not here — the hub does not answer
// bad handshakes.
func Join(ctx context.Context, addr, token string) (*Worker, error) {
	return JoinConfig(ctx, addr, token, Config{})
}

// JoinConfig is Join with explicit failure-detection timings (and the
// WrapConn fault-injection hook).
func JoinConfig(ctx context.Context, addr, token string, cfg Config) (*Worker, error) {
	cfg = cfg.withDefaults()
	d := net.Dialer{Timeout: dur(cfg.JoinTimeout)}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	w := &Worker{conn: conn, r: bufio.NewReader(conn), cfg: cfg}
	w.w.w = conn
	w.w.timeout = dur(cfg.WriteTimeout)
	if to := dur(cfg.JoinTimeout); to > 0 {
		conn.SetWriteDeadline(time.Now().Add(to))
	}
	err = w.w.write(frame{tag: tagCtrlJoin, data: []byte(joinMagic + token)})
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: join handshake: %w", err)
	}
	return w, nil
}

// remote is a worker's per-job Transport endpoint.
type remote struct {
	w     *Worker
	rank  int
	size  int
	start time.Time
	in    *inbox

	cancelOnce sync.Once
	cancelCh   chan struct{}
}

// CancelRequested implements CancelNotifier: the channel closes when the
// coordinator cancels the job out-of-band (Group.Cancel or DropRank).
func (r *remote) CancelRequested() <-chan struct{} { return r.cancelCh }

// cancelJob delivers a coordinator cancel frame. A soft cancel only closes
// the notification channel (cooperative rank functions stop at their next
// check); a hard cancel also poisons the inbox so a rank wedged mid-
// protocol aborts, reports failure, and the worker survives to re-park.
func (r *remote) cancelJob(hard bool) {
	r.cancelOnce.Do(func() { close(r.cancelCh) })
	if hard {
		r.in.fail(errors.New("job canceled by coordinator"))
	}
}

func (r *remote) Rank() int              { return r.rank }
func (r *remote) Size() int              { return r.size }
func (r *remote) Elapsed() time.Duration { return time.Since(r.start) }

func (r *remote) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= r.size {
		fatalf("send to invalid rank %d", dst)
	}
	if dst == r.rank {
		cp := make([]byte, len(data))
		copy(cp, data)
		r.in.push(frame{src: r.rank, dst: dst, tag: tag, data: cp})
		return
	}
	if err := r.w.w.write(frame{src: r.rank, dst: dst, tag: tag, data: data}); err != nil {
		r.in.fail(err)
		fatalf("send to rank %d: %v", dst, err)
	}
}

func (r *remote) Recv(src, tag int) ([]byte, mpi.Status) { return r.in.recv(src, tag) }

// Poll is the non-blocking Recv (see Transport.Poll).
func (r *remote) Poll(src, tag int) ([]byte, mpi.Status, bool) { return r.in.pollRecv(src, tag) }
func (r *remote) Bcast(root int, data []byte) []byte           { return bcast(r, root, data) }
func (r *remote) Gather(root int, data []byte) [][]byte        { return gather(r, root, data) }
func (r *remote) Barrier()                                     { barrier(r) }

// Serve runs the worker loop: wait for a rank assignment, execute fn as
// that rank, report completion, and return to waiting — until the hub says
// goodbye (returns nil), the connection fails, or ctx is cancelled (both
// return an error). Rank function errors are reported to the hub and end
// that job only, not the loop: a registered worker survives failed jobs.
func (w *Worker) Serve(ctx context.Context, fn func(Transport) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() { w.conn.Close() })
	defer stop()
	defer w.conn.Close()

	// The reader classifies frames as they arrive. It installs the job
	// inbox itself when a start notice comes in — the master's first data
	// frames follow the start notice immediately, so deferring inbox
	// installation to the serve loop below would drop them.
	type ctrlMsg struct {
		tag int
		job *remote // set for start notices
		err error   // set when the connection failed
	}
	ctrl := make(chan ctrlMsg, 16)
	var cur atomic.Pointer[remote]
	go func() {
		// The heartbeat read deadline arms only after the first ping: a hub
		// that does not ping (heartbeats disabled) keeps a worker that would
		// otherwise misread the idle silence as a dead coordinator.
		hbTimeout := dur(w.cfg.HeartbeatTimeout)
		armed := false
		for {
			if armed && hbTimeout > 0 {
				w.conn.SetReadDeadline(time.Now().Add(hbTimeout))
			}
			f, err := readFrame(w.r)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					telemetry.HeartbeatTimeouts.Inc()
					err = fmt.Errorf("no heartbeat for %v: %w", hbTimeout, err)
				}
				if r := cur.Load(); r != nil {
					r.in.fail(err)
				}
				ctrl <- ctrlMsg{err: err}
				return
			}
			switch f.tag {
			case tagCtrlPing:
				telemetry.HeartbeatPingsRecv.Inc()
				armed = true
				if w.w.writeQuiet(frame{tag: tagCtrlPong}) == nil {
					telemetry.HeartbeatPongsSent.Inc()
				}
				// A failed pong write means the connection is going down;
				// the next read surfaces it.
			case tagCtrlCancel:
				if r := cur.Load(); r != nil {
					r.cancelJob(len(f.data) > 0 && f.data[0] != 0)
				}
			case tagCtrlStart:
				if len(f.data) < 8 {
					ctrl <- ctrlMsg{err: errors.New("malformed start notice")}
					return
				}
				rank := int(binary.LittleEndian.Uint32(f.data[0:]))
				size := int(binary.LittleEndian.Uint32(f.data[4:]))
				if rank < 1 || size <= rank {
					ctrl <- ctrlMsg{err: fmt.Errorf("invalid rank assignment %d/%d", rank, size)}
					return
				}
				r := &remote{w: w, rank: rank, size: size, start: time.Now(),
					in: newInbox(), cancelCh: make(chan struct{})}
				cur.Store(r)
				ctrl <- ctrlMsg{tag: tagCtrlStart, job: r}
			case tagCtrlEnd, tagCtrlBye:
				ctrl <- ctrlMsg{tag: f.tag}
			default:
				if r := cur.Load(); r != nil {
					r.in.push(f)
				}
				// Data frames outside a job are stale remnants; drop them.
			}
		}
	}()

	for m := range ctrl {
		switch {
		case m.err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("transport: hub connection lost: %w", m.err)
		case m.tag == tagCtrlBye:
			return nil
		case m.tag == tagCtrlEnd:
			// Job already wound down on our side.
		case m.tag == tagCtrlStart:
			status := byte(0)
			if err := Run(m.job, fn); err != nil {
				status = 1
			}
			// Detach the finished job's inbox so late frames are dropped
			// (and the inbox freed) instead of accumulating unread.
			cur.Store(nil)
			if err := w.w.write(frame{src: m.job.rank, tag: tagCtrlDone, data: []byte{status}}); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("transport: hub connection lost: %w", err)
			}
		}
	}
	return nil
}

// Close tears the worker's hub connection down; a blocked Serve returns.
func (w *Worker) Close() error { return w.conn.Close() }

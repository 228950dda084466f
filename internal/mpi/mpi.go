// Package mpi is a virtual-time message-passing cluster simulator.
//
// The paper ran its parallel strategies with MPICH 1.2.5 on a dedicated
// eight-node Pentium-4 cluster connected by fast Ethernet. A development
// host has fewer cores than the paper had nodes, so the cluster is
// simulated in virtual time, and a run reports what a wall clock on the
// paper's hardware would have measured:
//
//   - Each rank runs in its own goroutine and keeps a private virtual
//     clock. The code a rank runs between two MPI calls, a compute
//     segment, is timed with a monotonic clock and charged to that clock
//     (Options.MeasureCompute), or charged explicitly with Comm.Charge.
//   - Message-passing costs follow a LogP-style model: per-message sender
//     overhead, bandwidth (bytes/second), and wire latency. A message
//     enqueued at virtual time t arrives at t + overheads; a Recv advances
//     the receiver's clock to max(own clock, arrival) — waiting shows up as
//     idle virtual time exactly as on a real cluster.
//   - Operations commit one at a time, in a fixed order: the next one
//     belongs to the rank with the smallest (clock at the start of its
//     current segment, rank id) among the ranks not blocked in a receive.
//     That is the schedule of running one rank at a time and always
//     resuming the lowest clock, which keeps virtual-time causality tight.
//   - Compute segments run concurrently. A rank that reaches a receive, a
//     poll or a collective before its turn parks there, and its measured
//     compute lands on its clock only when the turn comes. A send never
//     waits: it is queued with the sender's projected clock and committed
//     at its turn by whichever rank hands the turn on. Results and clocks
//     therefore do not depend on how the goroutines interleave; with
//     MeasureCompute off a run is a pure function of its program.
//   - At most min(ranks, GOMAXPROCS) ranks compute at once. A rank holds
//     one of these CPU slots only while it computes, and a freed slot goes
//     to the waiting rank with the lowest clock, so measured compute does
//     not include time a rank spent descheduled. A sender hands its slot
//     to a waiting rank with a lower clock, whose turn comes first.
//
// The reported runtime of a parallel phase is the maximum virtual clock
// over ranks (the makespan), which is what a wall clock would measure on
// the paper's hardware.
package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// AnySource matches messages from every rank in Recv.
const AnySource = -1

// AnyTag matches every non-internal tag in Recv.
const AnyTag = -1

// Internal collective tags (never matched by AnyTag).
const (
	tagBarrierUp = -(100 + iota)
	tagBarrierDown
	tagBcast
	tagGather
)

// NetModel is the LogP-style communication cost model.
type NetModel struct {
	// Latency is the wire time per message.
	Latency time.Duration
	// BytesPerSec is the link bandwidth; 0 means infinite.
	BytesPerSec float64
	// SendOverhead and RecvOverhead are per-message CPU costs charged to
	// the sender and receiver clocks.
	SendOverhead time.Duration
	RecvOverhead time.Duration
	// TrueBroadcast charges a Bcast's payload once at the root (a shared-
	// medium LAN delivers one frame burst to every station) instead of one
	// unicast per destination.
	TrueBroadcast bool
}

// FastEthernet models the paper's interconnect: 100 Mbit/s Ethernet driven
// through MPICH-1.2/TCP. One-way small-message MPI latency on that stack is
// a few hundred microseconds; bandwidth is the 12.5 MB/s wire rate.
func FastEthernet() NetModel {
	return NetModel{
		Latency:       250 * time.Microsecond,
		BytesPerSec:   12.5e6,
		SendOverhead:  50 * time.Microsecond,
		RecvOverhead:  50 * time.Microsecond,
		TrueBroadcast: true,
	}
}

// Ideal models a zero-cost interconnect (shared-memory ablation).
func Ideal() NetModel { return NetModel{} }

func (m NetModel) transferTime(bytes int) time.Duration {
	if m.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.BytesPerSec * float64(time.Second))
}

// Options configures a cluster.
type Options struct {
	Net NetModel
	// MeasureCompute charges each compute segment's real (monotonic) time
	// to the rank's virtual clock. Ranks compute in parallel, at most
	// GOMAXPROCS at once, and a rank is timed only while it holds a CPU,
	// so the charge stays close to the segment's CPU time on a host with
	// fewer cores than ranks. Operations still commit in the sequential
	// order, so measurement moves clocks but never reorders the schedule
	// by itself. Disable for deterministic tests and charge explicitly
	// with Comm.Charge.
	MeasureCompute bool
}

// RankStats reports one rank's accounting after Run.
type RankStats struct {
	Clock     time.Duration // final virtual time
	Compute   time.Duration // charged compute
	Comm      time.Duration // clock - compute (overheads + waiting)
	MsgsSent  int
	BytesSent int
	MsgsRecv  int
	BytesRecv int
}

type message struct {
	src, tag int
	data     []byte
	arrival  time.Duration
	seq      uint64
}

type opKind uint8

const (
	opSend       opKind = iota // a queued send or broadcast fan-out
	opExit                     // the rank function returned
	opRecv                     // a parked Recv
	opPollCharge               // a parked Poll's first turn: land the compute
	opPollCheck                // a parked Poll's second turn: look at the inbox
)

// outMsg is one destination's copy of a queued send.
type outMsg struct {
	dst  int
	data []byte
}

// op is an MPI operation waiting for its turn.
type op struct {
	kind opKind
	// key is the rank's clock at the start of the compute segment that
	// ended in this call: the op's place in the commit order.
	key time.Duration
	// compute is that segment's compute, landed on the clock at commit.
	compute time.Duration
	src     int // opRecv, opPoll*
	tag     int
	out     []outMsg // opSend
	// once charges one send overhead and the transfer of size bytes for
	// the whole fan-out (a true broadcast) instead of one per message.
	once bool
	size int
}

type rankState struct {
	id    int
	clock time.Duration // committed virtual clock
	// key is the projected clock at the start of the current compute
	// segment: the committed clock plus the effect of every queued op.
	key time.Duration
	// pending and computeStart belong to the rank's goroutine: explicit
	// charges and the start of the segment being timed.
	pending      time.Duration
	computeStart time.Time
	// ops holds the uncommitted operations in program order: queued sends,
	// then possibly the call the rank is parked in, or its exit.
	ops      []op
	blocked  bool // ops[0] is a Recv that found no matching message
	done     bool // the exit has committed
	wantSlot bool // ready to compute, waiting for a CPU slot
	hasSlot  bool
	inbox    []message
	resume   chan struct{}
	got      message // what the last committed Recv or Poll consumed
	gotOK    bool
	stats    RankStats
}

// Cluster is a one-shot virtual cluster; create one per Run.
type Cluster struct {
	n     int
	opt   Options
	mu    sync.Mutex
	rs    []*rankState
	seq   uint64
	slots int // free CPU slots
	dead  bool
	ran   bool
}

// NewCluster creates a cluster with n ranks.
func NewCluster(n int, opt Options) *Cluster {
	if n < 1 {
		panic("mpi: cluster needs at least one rank")
	}
	cl := &Cluster{n: n, opt: opt, slots: min(n, runtime.GOMAXPROCS(0))}
	for i := 0; i < n; i++ {
		cl.rs = append(cl.rs, &rankState{id: i, resume: make(chan struct{}, 1)})
	}
	return cl
}

// Size returns the number of ranks.
func (cl *Cluster) Size() int { return cl.n }

// Run executes f once per rank and blocks until every rank returns. It can
// be called once per cluster. The returned error joins all rank errors.
func (cl *Cluster) Run(f func(c *Comm) error) error {
	cl.mu.Lock()
	if cl.ran {
		cl.mu.Unlock()
		return errors.New("mpi: cluster already ran")
	}
	cl.ran = true
	cl.mu.Unlock()

	errs := make([]error, cl.n)
	var wg sync.WaitGroup
	for _, rs := range cl.rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rs.id] = fmt.Errorf("mpi: rank %d panicked: %v", rs.id, r)
					cl.abort(rs)
				}
			}()
			cl.mu.Lock()
			cl.awaitSlotLocked(rs)
			cl.mu.Unlock()
			errs[rs.id] = f(&Comm{cl: cl, rs: rs})
			compute := cl.endSegment(rs)
			cl.mu.Lock()
			rs.ops = append(rs.ops, op{kind: opExit, key: rs.key, compute: compute})
			cl.releaseSlotLocked(rs)
			cl.advanceLocked()
			cl.mu.Unlock()
		}()
	}

	// Every rank starts at clock 0; the slots go to the lowest ranks.
	cl.mu.Lock()
	for _, rs := range cl.rs {
		rs.wantSlot = true
	}
	cl.grantSlotsLocked()
	cl.mu.Unlock()

	wg.Wait()
	return errors.Join(errs...)
}

// abort takes a panicking rank out of the schedule. Sends it queued before
// the panic still commit in turn; after a deadlock nothing is left to
// commit.
func (cl *Cluster) abort(rs *rankState) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.releaseSlotLocked(rs)
	if cl.dead {
		rs.done, rs.blocked, rs.ops = true, false, nil
		return
	}
	rs.ops = append(rs.ops, op{kind: opExit, key: rs.key})
	cl.advanceLocked()
}

// MakeSpan returns the maximum virtual clock over ranks — the simulated
// wall time of the whole run.
func (cl *Cluster) MakeSpan() time.Duration {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var max time.Duration
	for _, rs := range cl.rs {
		if rs.clock > max {
			max = rs.clock
		}
	}
	return max
}

// Stats returns per-rank accounting.
func (cl *Cluster) Stats() []RankStats {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]RankStats, cl.n)
	for i, rs := range cl.rs {
		st := rs.stats
		st.Clock = rs.clock
		st.Comm = rs.clock - st.Compute
		out[i] = st
	}
	return out
}

// endSegment stops timing the rank's current compute segment and returns
// its compute: the measured time, if enabled, plus explicit charges. Only
// the rank's own goroutine calls it.
func (cl *Cluster) endSegment(rs *rankState) time.Duration {
	d := rs.pending
	rs.pending = 0
	if cl.opt.MeasureCompute {
		if dt := time.Since(rs.computeStart); dt > 0 {
			d += dt
		}
	}
	return d
}

// queue appends a send that ends a compute segment of the given length,
// advances the rank's projected clock past it, and commits whatever ops
// have their turn. The rank then computes on, unless a rank with a smaller
// clock is waiting for a CPU slot: the sender hands over its own slot and
// waits for the next free one, since the turn order waits on the lower
// clock anyway.
func (cl *Cluster) queue(rs *rankState, o op, compute time.Duration) {
	cl.mu.Lock()
	o.key, o.compute = rs.key, compute
	rs.key += compute + cl.opt.Net.sendCost(&o)
	rs.ops = append(rs.ops, o)
	cl.advanceLocked()
	for _, w := range cl.rs {
		if w.wantSlot && w.key < rs.key {
			cl.releaseSlotLocked(rs)
			rs.wantSlot = true
			cl.grantSlotsLocked()
			break
		}
	}
	cl.awaitSlotLocked(rs)
	cl.mu.Unlock()
}

// park appends a blocking op, gives up the rank's CPU slot, and returns
// once the op has committed and the rank holds a slot again, with what
// the op received.
func (cl *Cluster) park(rs *rankState, o op) (message, bool) {
	compute := cl.endSegment(rs)
	cl.mu.Lock()
	o.key, o.compute = rs.key, compute
	rs.ops = append(rs.ops, o)
	cl.releaseSlotLocked(rs)
	cl.advanceLocked()
	cl.awaitSlotLocked(rs)
	msg, ok := rs.got, rs.gotOK
	rs.got = message{}
	cl.mu.Unlock()
	return msg, ok
}

// sendCost is the clock advance a queued send charges its sender.
func (m NetModel) sendCost(o *op) time.Duration {
	if o.once {
		return m.SendOverhead + m.transferTime(o.size)
	}
	var d time.Duration
	for _, x := range o.out {
		d += m.SendOverhead + m.transferTime(len(x.data))
	}
	return d
}

func (cl *Cluster) releaseSlotLocked(rs *rankState) {
	if rs.hasSlot {
		rs.hasSlot = false
		cl.slots++
	}
}

// awaitSlotLocked waits until the rank holds a CPU slot, then starts
// timing its next compute segment.
func (cl *Cluster) awaitSlotLocked(rs *rankState) {
	for !rs.hasSlot {
		if cl.dead {
			cl.mu.Unlock() // the recovery handler re-locks
			panic("mpi: deadlock: all ranks blocked in Recv")
		}
		cl.mu.Unlock()
		<-rs.resume
		cl.mu.Lock()
	}
	rs.computeStart = time.Now()
}

func wake(rs *rankState) {
	select {
	case rs.resume <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// turnLocked returns the rank the next commit belongs to: the smallest
// (key, id) among ranks not blocked and not done. A rank with queued ops
// is keyed by its oldest one.
func (cl *Cluster) turnLocked() *rankState {
	var best *rankState
	var bestKey time.Duration
	for _, rs := range cl.rs {
		if rs.done || rs.blocked {
			continue
		}
		k := rs.key
		if len(rs.ops) > 0 {
			k = rs.ops[0].key
		}
		if best == nil || k < bestKey {
			best, bestKey = rs, k
		}
	}
	return best
}

// advanceLocked commits ops in turn order until the turn belongs to a rank
// that is still computing, then hands out free CPU slots. With no rank
// left to take a turn, ranks still blocked in Recv are deadlocked.
func (cl *Cluster) advanceLocked() {
	for {
		rs := cl.turnLocked()
		if rs == nil {
			for _, b := range cl.rs {
				if b.blocked {
					cl.dead = true
					wake(b)
				}
			}
			break
		}
		if len(rs.ops) == 0 {
			break // its segment decides what happens next
		}
		cl.commitLocked(rs)
	}
	cl.grantSlotsLocked()
}

// grantSlotsLocked gives free CPU slots to waiting ranks, lowest clock
// first.
func (cl *Cluster) grantSlotsLocked() {
	for cl.slots > 0 {
		var best *rankState
		for _, rs := range cl.rs {
			if rs.wantSlot && (best == nil || rs.key < best.key) {
				best = rs
			}
		}
		if best == nil {
			return
		}
		best.wantSlot, best.hasSlot = false, true
		cl.slots--
		wake(best)
	}
}

// commitLocked commits the rank's oldest op, whose turn it is.
func (cl *Cluster) commitLocked(rs *rankState) {
	o := &rs.ops[0]
	rs.clock += o.compute
	rs.stats.Compute += o.compute
	o.compute = 0
	switch o.kind {
	case opSend:
		cl.sendLocked(rs, o)
	case opExit:
		rs.done = true
	case opPollCharge:
		// The poll looks at the inbox only after every rank with a smaller
		// clock has had its turn.
		o.kind, o.key = opPollCheck, rs.clock
		return
	case opRecv, opPollCheck:
		i := findMatchLocked(rs, o.src, o.tag)
		if i < 0 && o.kind == opRecv {
			rs.blocked = true // sendLocked unblocks it
			return
		}
		rs.got, rs.gotOK = message{}, i >= 0
		if i >= 0 {
			rs.got = rs.inbox[i]
			rs.inbox = append(rs.inbox[:i], rs.inbox[i+1:]...)
			rs.clock = max(rs.clock, rs.got.arrival) + cl.opt.Net.RecvOverhead
			rs.stats.MsgsRecv++
			rs.stats.BytesRecv += len(rs.got.data)
		}
		rs.key = rs.clock
		rs.wantSlot = true
	}
	copy(rs.ops, rs.ops[1:])
	rs.ops[len(rs.ops)-1] = op{}
	rs.ops = rs.ops[:len(rs.ops)-1]
}

// sendLocked delivers a queued send to its destinations' inboxes.
func (cl *Cluster) sendLocked(rs *rankState, o *op) {
	m := cl.opt.Net
	if o.once {
		rs.clock += m.SendOverhead + m.transferTime(o.size)
	}
	for _, x := range o.out {
		if !o.once {
			rs.clock += m.SendOverhead + m.transferTime(len(x.data))
		}
		cl.seq++
		target := cl.rs[x.dst]
		target.inbox = append(target.inbox, message{
			src: rs.id, tag: o.tag, data: x.data, arrival: rs.clock + m.Latency, seq: cl.seq,
		})
		rs.stats.MsgsSent++
		rs.stats.BytesSent += len(x.data)
		if target.blocked && findMatchLocked(target, target.ops[0].src, target.ops[0].tag) >= 0 {
			target.blocked = false
			target.ops[0].key = target.clock
		}
	}
}

func matches(m *message, src, tag int) bool {
	if src != AnySource && m.src != src {
		return false
	}
	if tag == AnyTag {
		return m.tag >= 0 // internal tags are never matched by AnyTag
	}
	return m.tag == tag
}

// findMatchLocked returns the index of the best matching message in the
// inbox: smallest arrival time, ties broken by send sequence.
func findMatchLocked(rs *rankState, src, tag int) int {
	best := -1
	for i := range rs.inbox {
		m := &rs.inbox[i]
		if !matches(m, src, tag) {
			continue
		}
		if best < 0 || m.arrival < rs.inbox[best].arrival ||
			(m.arrival == rs.inbox[best].arrival && m.seq < rs.inbox[best].seq) {
			best = i
		}
	}
	return best
}

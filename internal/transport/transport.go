// Package transport abstracts the message-passing substrate the parallel
// SimE strategies run on.
//
// The Transport interface captures exactly the communication semantics the
// strategies already use against the virtual-time simulator: eager tagged
// sends, blocking and non-blocking receives with source/tag wildcards, and
// the three collectives (broadcast, gather, barrier). *mpi.Comm — a rank inside the
// simulated cluster — satisfies it unchanged, so every strategy runs
// identically on simulated ranks (goroutines, virtual clocks) and on real
// ranks (OS processes connected over TCP, this package's tcp.go).
//
// The TCP implementation is a star: a coordinator (the Hub) listens for
// workers, parks joined connections in a pool, and forms a Group per run by
// assigning ranks over a join handshake. Rank 0 is the coordinator process
// itself; frames between two workers are relayed through the hub. The
// paper's strategies are master/slave, so virtually all traffic terminates
// at rank 0 anyway and the relay path is cold.
package transport

import (
	"fmt"
	"time"

	"simevo/internal/mpi"
)

// Transport is one rank's handle to a message-passing cluster. The
// simulator's *mpi.Comm and the TCP endpoints of this package implement it.
//
// Methods follow mpi.Comm's contract: Send is eager (buffered at the
// receiver) and Recv blocks until a message matching (src, tag) arrives,
// with mpi.AnySource / mpi.AnyTag as wildcards; internal collective traffic
// is never matched by AnyTag. A send to the caller's own rank is a local
// enqueue. Communication failures on real transports surface as *Fatal
// panics — run strategy code under Run to turn them into errors.
type Transport interface {
	// Rank returns this rank's id (0-based).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Elapsed returns this rank's clock: virtual time on the simulator,
	// wall time since the run started on real transports.
	Elapsed() time.Duration
	// Send posts a message to dst.
	Send(dst, tag int, data []byte)
	// Recv blocks until a message matching (src, tag) is available.
	Recv(src, tag int) ([]byte, mpi.Status)
	// Poll is the non-blocking Recv the asynchronous Type III exchange
	// builds on: it consumes and returns a message matching (src, tag) if
	// one is already available and reports ok=false otherwise. On the
	// simulator a poll participates in the virtual-time schedule
	// (deterministic under MeasureCompute=false); on TCP it inspects the
	// live inbox, so what a poll sees depends on wall-clock arrival order.
	Poll(src, tag int) (data []byte, st mpi.Status, ok bool)
	// Bcast distributes data from root to every rank; all ranks must call it.
	Bcast(root int, data []byte) []byte
	// Gather collects one payload per rank at root; all ranks must call it.
	// Root returns the payloads indexed by rank; non-roots return nil.
	Gather(root int, data []byte) [][]byte
	// Barrier blocks until every rank reaches it.
	Barrier()
}

// The simulator rank and both TCP endpoints implement Transport.
var (
	_ Transport = (*mpi.Comm)(nil)
	_ Transport = (*Group)(nil)
	_ Transport = (*remote)(nil)
)

// Fatal wraps an unrecoverable transport failure (connection loss, protocol
// corruption). TCP endpoints panic with *Fatal from inside Send/Recv —
// blocking primitives have no error return, matching the simulator's
// interface — and Run converts the panic back into an error at the rank
// boundary.
type Fatal struct {
	Err error
}

func (f *Fatal) Error() string { return "transport: " + f.Err.Error() }
func (f *Fatal) Unwrap() error { return f.Err }

// RankError attributes a transport failure to one cluster rank: the worker
// connection holding that rank died, timed out its heartbeats, abandoned
// the strategy protocol, or was expelled with DropRank. It travels inside
// *Fatal on the panicking primitives and bare on the Try* variants; callers
// recover the rank with errors.As.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }
func (e *RankError) Unwrap() error { return e.Err }

// CancelNotifier is implemented by worker-side transports that can receive
// an out-of-band cancel frame from the coordinator (Group.Cancel /
// Group.DropRank). The channel closes at the first cancel frame; rank
// functions select on it (or wire it to a context) to stop mid-budget.
type CancelNotifier interface {
	CancelRequested() <-chan struct{}
}

// fatalf panics with a formatted *Fatal.
func fatalf(format string, args ...any) {
	panic(&Fatal{Err: fmt.Errorf(format, args...)})
}

// Run executes one rank's function, converting *Fatal panics from transport
// primitives into a returned error. Other panics propagate.
func Run(t Transport, fn func(Transport) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*Fatal)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	return fn(t)
}

// Internal collective and control tags. Like the simulator's, they are
// negative so mpi.AnyTag (which matches only tags >= 0) never captures
// collective traffic.
const (
	tagBcast = -(2001 + iota)
	tagGather
	tagBarrierUp
	tagBarrierDown
)

// bcast implements the broadcast collective over point-to-point primitives.
func bcast(t Transport, root int, data []byte) []byte {
	if t.Rank() == root {
		for dst := 0; dst < t.Size(); dst++ {
			if dst != root {
				t.Send(dst, tagBcast, data)
			}
		}
		return data
	}
	payload, _ := t.Recv(root, tagBcast)
	return payload
}

// gather implements the gather collective: root receives in rank order.
func gather(t Transport, root int, data []byte) [][]byte {
	if t.Rank() != root {
		t.Send(root, tagGather, data)
		return nil
	}
	out := make([][]byte, t.Size())
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < t.Size(); r++ {
		if r == root {
			continue
		}
		payload, _ := t.Recv(r, tagGather)
		out[r] = payload
	}
	return out
}

// barrier implements the barrier collective (linear fan-in/fan-out through
// rank 0), mirroring mpi.Comm.Barrier.
func barrier(t Transport) {
	if t.Rank() == 0 {
		for r := 1; r < t.Size(); r++ {
			t.Recv(r, tagBarrierUp)
		}
		for r := 1; r < t.Size(); r++ {
			t.Send(r, tagBarrierDown, nil)
		}
		return
	}
	t.Send(0, tagBarrierUp, nil)
	t.Recv(0, tagBarrierDown)
}

package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"simevo/internal/mpi"
	"simevo/internal/telemetry"
)

// Wire framing: every message is a length-prefixed frame
//
//	uint32 length   (bytes after this field)
//	int32  src      (sender rank)
//	int32  dst      (destination rank)
//	int32  tag
//	payload
//
// all little-endian. Control frames (join handshake, rank assignment,
// job boundaries) use reserved negative tags below the collective range.

const (
	frameHeader = 12      // src + dst + tag
	maxFrame    = 1 << 28 // 256 MiB payload guard against corrupt prefixes
	// frameStep is the largest buffer a frame is given before its bytes
	// arrive. Longer frames grow the buffer as they are read, so a bare
	// length prefix costs at most this much.
	frameStep = 64 << 10
)

// Control tags of the coordinator/worker protocol.
const (
	tagCtrlJoin   = -(3001 + iota) // worker -> hub: join handshake (payload: magic)
	tagCtrlStart                   // hub -> worker: job start (payload: rank, size)
	tagCtrlDone                    // worker -> hub: rank function returned (payload: status byte)
	tagCtrlEnd                     // hub -> worker: job closed, return to the pool
	tagCtrlBye                     // hub -> worker: shut down for good
	tagCtrlPing                    // hub -> worker: liveness probe
	tagCtrlPong                    // worker -> hub: liveness reply
	tagCtrlCancel                  // hub -> worker: stop the current job (payload: 0 soft / 1 hard)
)

// joinMagic identifies (and versions) the join handshake.
const joinMagic = "simevo-transport-v1"

type frame struct {
	src, dst, tag int
	data          []byte
}

// writeFrame serializes one frame to w. Callers serialize access per
// connection (see connWriter).
func writeFrame(w io.Writer, f frame) error {
	var hdr [4 + frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(frameHeader+len(f.data)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(f.src)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(f.dst)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(int32(f.tag)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.data) > 0 {
		if _, err := w.Write(f.data); err != nil {
			return err
		}
	}
	telemetry.TransportSentFrames.Inc()
	telemetry.TransportSentBytes.Add(uint64(len(hdr) + len(f.data)))
	return nil
}

// readFrame reads one frame from r.
func readFrame(r *bufio.Reader) (frame, error) { return readFrameMax(r, maxFrame) }

// readFrameMax reads one frame whose payload is at most limit bytes. The
// buffer starts at no more than frameStep bytes and at most doubles per
// step while the frame's bytes arrive, so the memory a frame holds stays
// within twice what was received plus one step, whatever its prefix
// claims.
func readFrameMax(r *bufio.Reader, limit int) (frame, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return frame{}, err
	}
	n := int64(binary.LittleEndian.Uint32(pfx[:]))
	if n < frameHeader || n > int64(limit)+frameHeader {
		return frame{}, fmt.Errorf("transport: frame length %d out of range", n)
	}
	buf := make([]byte, min(n, frameStep))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
		off = len(buf)
		if int64(off) == n {
			break
		}
		next := make([]byte, off+int(min(n-int64(off), int64(off))))
		copy(next, buf)
		buf = next
	}
	f := frame{
		src: int(int32(binary.LittleEndian.Uint32(buf[0:]))),
		dst: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		tag: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	if len(buf) > frameHeader {
		f.data = buf[frameHeader:]
	}
	telemetry.TransportRecvFrames.Inc()
	telemetry.TransportRecvBytes.Add(uint64(len(pfx) + len(buf)))
	return f, nil
}

// connWriter serializes frame writes to one connection: the coordinator
// writes to a worker from the rank-0 strategy goroutine and from relay
// readers concurrently. It keeps per-connection traffic totals (frames
// and payload bytes) for the hub's worker detail report. With a timeout
// configured, every frame write carries a deadline so a peer that stopped
// reading cannot wedge the writer (and the goroutine holding its lock)
// forever.
type connWriter struct {
	mu      sync.Mutex
	w       io.Writer
	timeout time.Duration // per-frame write deadline; 0 disables

	msgs  atomic.Int64 // frames successfully written
	bytes atomic.Int64 // payload bytes successfully written
}

func (cw *connWriter) write(f frame) error {
	if err := cw.writeQuiet(f); err != nil {
		return err
	}
	cw.msgs.Add(1)
	cw.bytes.Add(int64(len(f.data)))
	return nil
}

// writeQuiet writes a frame without touching the per-connection traffic
// totals — heartbeat pings/pongs are out-of-band and must not skew the
// worker-detail accounting the totals feed.
func (cw *connWriter) writeQuiet(f frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.timeout > 0 {
		if c, ok := cw.w.(net.Conn); ok {
			c.SetWriteDeadline(time.Now().Add(cw.timeout))
		}
	}
	return writeFrame(cw.w, f)
}

// inbox is a rank's received-message queue: FIFO per (src, tag) match,
// blocking receive. Failures come in two scopes: fail poisons the whole
// inbox (the rank's own connection is gone), while failRank marks one peer
// rank dead — receives awaiting that rank abort with a *RankError, traffic
// from surviving ranks keeps flowing.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []frame
	err  error

	rankErr     map[int]error // per-source failures (coordinator inbox)
	rankPending []int         // failed ranks not yet surfaced to a wildcard recv
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(f frame) {
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, f)
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// fail poisons the inbox: pending and future receives panic with *Fatal.
func (ib *inbox) fail(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// failRank marks one source rank dead. The first call per rank wins;
// queued messages from the rank still deliver (they arrived before the
// failure), then receives naming it — or wildcard receives, once each —
// report err.
func (ib *inbox) failRank(rank int, err error) {
	ib.mu.Lock()
	if ib.rankErr == nil {
		ib.rankErr = make(map[int]error)
	}
	if _, dup := ib.rankErr[rank]; !dup {
		ib.rankErr[rank] = err
		ib.rankPending = append(ib.rankPending, rank)
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// matches mirrors the simulator's matching rule: wildcards match only
// non-internal (>= 0) tags.
func frameMatches(f *frame, src, tag int) bool {
	if src != mpi.AnySource && f.src != src {
		return false
	}
	if tag == mpi.AnyTag {
		return f.tag >= 0
	}
	return f.tag == tag
}

// recvErr blocks until a matching message arrives, in arrival order,
// returning an error when the inbox is poisoned or the awaited rank has
// failed. A wildcard (AnySource) receive surfaces each rank failure once,
// so a loop over AnySource observes every lost peer exactly one time.
func (ib *inbox) recvErr(src, tag int) ([]byte, mpi.Status, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i := range ib.msgs {
			f := ib.msgs[i]
			if !frameMatches(&f, src, tag) {
				continue
			}
			ib.msgs = append(ib.msgs[:i], ib.msgs[i+1:]...)
			return f.data, mpi.Status{Source: f.src, Tag: f.tag}, nil
		}
		if ib.err != nil {
			return nil, mpi.Status{}, ib.err
		}
		if src != mpi.AnySource {
			if err, ok := ib.rankErr[src]; ok {
				return nil, mpi.Status{}, err
			}
		} else if len(ib.rankPending) > 0 {
			r := ib.rankPending[0]
			ib.rankPending = ib.rankPending[1:]
			return nil, mpi.Status{}, ib.rankErr[r]
		}
		ib.cond.Wait()
	}
}

// recv blocks until a matching message arrives; failures panic with *Fatal
// (the Transport contract — Run converts them to errors).
func (ib *inbox) recv(src, tag int) ([]byte, mpi.Status) {
	data, st, err := ib.recvErr(src, tag)
	if err != nil {
		panic(&Fatal{Err: err})
	}
	return data, st
}

// pollRecv is the non-blocking recv: it consumes and returns a matching
// message if one is queued and reports ok=false otherwise, never waiting.
// A poisoned inbox panics with *Fatal exactly like recv — a poll must not
// silently swallow a dead connection — but per-rank failures stay queued
// for the blocking receives that know how to degrade on them.
func (ib *inbox) pollRecv(src, tag int) ([]byte, mpi.Status, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for i := range ib.msgs {
		f := ib.msgs[i]
		if !frameMatches(&f, src, tag) {
			continue
		}
		ib.msgs = append(ib.msgs[:i], ib.msgs[i+1:]...)
		return f.data, mpi.Status{Source: f.src, Tag: f.tag}, true
	}
	if ib.err != nil {
		panic(&Fatal{Err: ib.err})
	}
	return nil, mpi.Status{}, false
}

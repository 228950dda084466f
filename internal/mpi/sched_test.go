package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// The scheduler equivalence test runs seeded random programs and hashes
// everything the virtual-time schedule decides: every rank's receive
// sequence, the clocks it observes, its Stats and the makespan. The
// programs sleep for random real-time intervals inside their compute
// segments, so the real interleaving of the ranks differs from run to run
// and between GOMAXPROCS settings; the hashes must not.

type phaseKind uint8

const (
	phaseBcast phaseKind = iota
	phaseGather
	phaseBarrier
	phaseP2P
	phasePoll
)

// Receive modes of a point-to-point phase.
const (
	recvSpecific  = iota // Recv(src, tag) per expected message
	recvAnySource        // Recv(AnySource, tag)
	recvAnyTag           // Recv(AnySource, AnyTag); the phase ends in a barrier
)

type p2pMsg struct{ src, dst int }

type phase struct {
	kind     phaseKind
	root     int      // Bcast, Gather
	tag      int      // P2P, Poll
	msgs     []p2pMsg // P2P, in send order
	mode     []int    // P2P receive mode per rank
	src, dst int      // Poll: src sends k messages, dst polls for them
	k        int
	wildcard bool // Poll with AnySource
}

type program struct {
	ranks  int
	net    NetModel
	phases []phase
}

func genProgram(seed uint64) program {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	p := program{ranks: 2 + r.IntN(5)}
	if r.IntN(2) == 0 {
		p.net = FastEthernet()
	} else {
		// Zero latency and overheads make clock ties common.
		p.net = NetModel{BytesPerSec: 1e9}
	}
	nphases := 8 + r.IntN(8)
	for i := 0; i < nphases; i++ {
		tag := 10 + i
		switch r.IntN(6) {
		case 0:
			p.phases = append(p.phases, phase{kind: phaseBcast, root: r.IntN(p.ranks)})
		case 1:
			p.phases = append(p.phases, phase{kind: phaseGather, root: r.IntN(p.ranks)})
		case 2:
			p.phases = append(p.phases, phase{kind: phaseBarrier})
		case 3, 4:
			ph := phase{kind: phaseP2P, tag: tag, mode: make([]int, p.ranks)}
			for j := 1 + r.IntN(3*p.ranks); j > 0; j-- {
				ph.msgs = append(ph.msgs, p2pMsg{src: r.IntN(p.ranks), dst: r.IntN(p.ranks)})
			}
			anyTag := false
			for k := range ph.mode {
				ph.mode[k] = r.IntN(3)
				anyTag = anyTag || ph.mode[k] == recvAnyTag
			}
			p.phases = append(p.phases, ph)
			if anyTag {
				// A wildcard-tag receive could take a message of the next
				// phase; the barrier keeps phases apart.
				p.phases = append(p.phases, phase{kind: phaseBarrier})
			}
		case 5:
			src := r.IntN(p.ranks)
			dst := (src + 1 + r.IntN(p.ranks-1)) % p.ranks
			p.phases = append(p.phases, phase{kind: phasePoll, tag: tag, src: src, dst: dst,
				k: 1 + r.IntN(4), wildcard: r.IntN(2) == 0})
		}
	}
	return p
}

// rankRun interprets the program for one rank. det drives everything the
// virtual schedule may depend on; jitter only decides the real-time sleeps.
type rankRun struct {
	c      *Comm
	det    *rand.Rand
	jitter *rand.Rand
	h      hash.Hash
	sent   uint32
}

func (rr *rankRun) record(vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		rr.h.Write(buf[:])
	}
}

// compute models one stretch of work: a charge of 0–49 µs (sometimes
// zero, to force clock ties) and now and then a real-time pause.
func (rr *rankRun) compute() {
	if d := rr.det.IntN(60) - 10; d > 0 {
		rr.c.Charge(time.Duration(d) * time.Microsecond)
	}
	rr.pause()
}

// pause sometimes stalls the rank for 0–200 µs of real time: mostly by
// spinning, since a timer sleep overshoots by up to a millisecond, and now
// and then by parking the goroutine so that the Go scheduler reshuffles.
func (rr *rankRun) pause() {
	if rr.jitter.IntN(4) != 0 {
		return
	}
	d := time.Duration(rr.jitter.IntN(201)) * time.Microsecond
	if rr.jitter.IntN(8) == 0 {
		time.Sleep(d)
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}

func (rr *rankRun) payload() []byte {
	rr.sent++
	buf := make([]byte, 4+rr.det.IntN(64))
	binary.LittleEndian.PutUint32(buf, rr.sent)
	return buf
}

func (rr *rankRun) got(data []byte, st Status) {
	seq := int64(-1)
	if len(data) >= 4 {
		seq = int64(binary.LittleEndian.Uint32(data))
	}
	rr.record(int64(st.Source), int64(st.Tag), seq, int64(rr.c.Elapsed()))
}

func (rr *rankRun) run(p program) {
	me := rr.c.Rank()
	for _, ph := range p.phases {
		rr.compute()
		switch ph.kind {
		case phaseBcast:
			var data []byte
			if me == ph.root {
				data = rr.payload()
			}
			rr.got(rr.c.Bcast(ph.root, data), Status{Source: ph.root})
		case phaseGather:
			for src, d := range rr.c.Gather(ph.root, rr.payload()) {
				rr.got(d, Status{Source: src})
			}
		case phaseBarrier:
			rr.c.Barrier()
			rr.record(int64(rr.c.Elapsed()))
		case phaseP2P:
			var from []int
			for _, m := range ph.msgs {
				if m.src == me {
					rr.c.Send(m.dst, ph.tag, rr.payload())
					rr.record(int64(rr.c.Elapsed()))
					rr.compute()
				}
				if m.dst == me {
					from = append(from, m.src)
				}
			}
			for _, src := range from {
				switch ph.mode[me] {
				case recvSpecific:
					rr.got(rr.c.Recv(src, ph.tag))
				case recvAnySource:
					rr.got(rr.c.Recv(AnySource, ph.tag))
				default:
					rr.got(rr.c.Recv(AnySource, AnyTag))
				}
				rr.compute()
			}
		case phasePoll:
			switch me {
			case ph.src:
				for i := 0; i < ph.k; i++ {
					rr.compute()
					rr.c.Send(ph.dst, ph.tag, rr.payload())
				}
			case ph.dst:
				src := ph.src
				if ph.wildcard {
					src = AnySource
				}
				for n := 0; n < ph.k; {
					data, st, ok := rr.c.Poll(src, ph.tag)
					rr.record(int64(rr.c.Elapsed()))
					if ok {
						rr.got(data, st)
						n++
						continue
					}
					// A miss must cost something, or a poller whose clock
					// ties the sender's could poll forever.
					rr.c.Charge(time.Duration(1+rr.det.IntN(30)) * time.Microsecond)
					rr.pause()
				}
			}
		}
	}
	rr.compute()
}

// runProgram executes p once and returns the hash of its observable
// schedule.
func runProgram(t *testing.T, seed uint64, p program, rep int) string {
	t.Helper()
	cl := NewCluster(p.ranks, Options{Net: p.net})
	hs := make([]hash.Hash, p.ranks)
	err := cl.Run(func(c *Comm) error {
		rr := &rankRun{
			c:      c,
			det:    rand.New(rand.NewPCG(seed, uint64(c.Rank()))),
			jitter: rand.New(rand.NewPCG(uint64(rep), uint64(time.Now().UnixNano()))),
			h:      sha256.New(),
		}
		rr.run(p)
		hs[c.Rank()] = rr.h
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	all := sha256.New()
	for _, h := range hs {
		all.Write(h.Sum(nil))
	}
	for _, st := range cl.Stats() {
		fmt.Fprintf(all, "%d %d %d %d %d %d %d;", st.Clock, st.Compute, st.Comm,
			st.MsgsSent, st.BytesSent, st.MsgsRecv, st.BytesRecv)
	}
	fmt.Fprintf(all, "%d", cl.MakeSpan())
	return hex.EncodeToString(all.Sum(nil))[:16]
}

// schedGolden holds the hashes recorded with the token-passing scheduler,
// which ran exactly one rank at a time; the concurrent scheduler must
// reproduce its schedule bit for bit.
var schedGolden = map[uint64]string{
	1:  "0add23b0a01ff34c",
	2:  "1cb4a08517016430",
	3:  "84061852e658e0af",
	4:  "9abd30f6593c9b2d",
	5:  "5fb61f3c7fcc8df2",
	6:  "cac68ae347d80056",
	7:  "1434bd25eddaceca",
	8:  "8ad281bbe6ac1365",
	9:  "f25dd0afb2d9ab6c",
	10: "2efe7b789dce6bfe",
	11: "1f6e19d90819ee9d",
	12: "8cca95820f8f42d6",
}

func TestSchedulerEquivalence(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 3
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for seed := uint64(1); seed <= 12; seed++ {
		p := genProgram(seed)
		want := schedGolden[seed]
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < reps; rep++ {
				if got := runProgram(t, seed, p, rep); got != want {
					t.Fatalf("seed %d (%d ranks), GOMAXPROCS %d, rep %d: hash %s, want %s",
						seed, p.ranks, procs, rep, got, want)
				}
			}
		}
	}
}

// TestComputeExcludesDescheduledTime runs more computing ranks than CPUs:
// 4 ranks under GOMAXPROCS 2 each do a fixed amount of work that takes
// about 20 ms alone. A rank is timed only while it holds one of the 2 CPU
// slots, so the ranks' measured compute sums to at most twice the run's
// wall time, however loaded the host is. If the ranks shared the CPUs
// freely, each would be timed for nearly the whole run and the sum would
// approach 4 times the wall time.
func TestComputeExcludesDescheduledTime(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	iters := calibrateSpin(20 * time.Millisecond)
	cl := NewCluster(4, Options{Net: Ideal(), MeasureCompute: true})
	start := time.Now()
	err := cl.Run(func(c *Comm) error {
		spin(iters)
		c.Barrier()
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for r, st := range cl.Stats() {
		if st.Compute <= 0 {
			t.Fatalf("rank %d measured no compute", r)
		}
		sum += st.Compute
	}
	if sum > 2*wall {
		t.Fatalf("ranks measured %v of compute in %v of wall time on 2 CPU slots", sum, wall)
	}
}

//go:noinline
func spin(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
	}
	return x
}

// calibrateSpin returns the spin count that takes about d on one CPU,
// using the fastest of a few trials so that a busy host does not inflate
// the estimate's denominator.
func calibrateSpin(d time.Duration) int {
	const n = 1 << 20
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		spin(n)
		if el := time.Since(start); el < best {
			best = el
		}
	}
	if best <= 0 {
		best = 1
	}
	return int(float64(n) * float64(d) / float64(best))
}

package parallel

// Fault-tolerance tests run the strategies over a real in-process TCP
// cluster with the deterministic chaos wrapper injecting severed, hung,
// and corrupted connections, and pin the degraded-mode contract: the run
// finishes on the survivors, the lost ranks are recorded in the Result,
// and a fault-free run follows the simulator's trajectory bitwise.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/transport"
)

// runTCP executes one strategy over a real TCP cluster: rank 0 runs inline
// on an acquired Group, ranks 1..Procs-1 run in worker goroutines joined
// sequentially so rank assignment is deterministic (worker i holds rank
// i+1). workerCfg supplies per-rank join configs (chaos wrappers); unblock
// runs after rank 0 finishes, before the worker goroutines are reaped —
// use it to release a chaos-hung writer.
func runTCP(t *testing.T, prob *core.Problem, opt Options, hubCfg transport.Config,
	workerCfg map[int]transport.Config,
	entry func(Comm, *core.Problem, Options) (*Result, error),
	unblock ...func()) (*Result, error) {
	t.Helper()
	h, err := transport.ListenConfig("127.0.0.1:0", "", hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	workers := opt.Procs - 1
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w, err := transport.JoinConfig(context.Background(), h.Addr().String(), "", workerCfg[i+1])
		if err != nil {
			t.Fatalf("worker %d join: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rank failures are asserted from the master's Result; the
			// worker-side error (severed conn, canceled job) is expected
			// noise in the chaos runs.
			w.Serve(context.Background(), func(tr transport.Transport) error {
				_, err := entry(tr, prob, opt)
				return err
			})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for h.Workers() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g, err := h.Acquire(ctx, workers)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	runErr := transport.Run(g, func(tr transport.Transport) error {
		r, err := entry(tr, prob, opt)
		res = r
		return err
	})
	g.Close()
	h.Close()
	for _, fn := range unblock {
		fn()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker goroutines did not wind down")
	}
	return res, runErr
}

// TestSimCorruptFrameFailsRun: the simulated cluster runs the same
// degrading masters, but a simulated rank cannot fail, so a corrupt frame
// is a program bug — DropRank must fail the run with an error naming the
// rank, not degrade it or hang it. Rank 2 is scripted to send one bad
// frame; rank 1 is an ordinary slave.
func TestSimCorruptFrameFailsRun(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 5, 16)
	cases := []struct {
		name  string
		entry func(Comm, *core.Problem, Options) (*Result, error)
		bad   func(c Comm)
	}{
		{"typeI-short-goodness", TypeIRank, func(c Comm) {
			c.Bcast(0, nil)
			c.Gather(0, encodeF64s([]float64{0.5}))
		}},
		{"typeII-corrupt-rows", TypeIIRank, func(c Comm) {
			c.Bcast(0, nil)
			c.Send(0, tagT2Moves, []byte{1, 2, 3})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSim(prob, detOpts(3), func(c Comm, prob *core.Problem, opt Options) (*Result, error) {
				if c.Rank() == 2 {
					tc.bad(c)
					return nil, nil
				}
				return tc.entry(c, prob, opt)
			})
			if err == nil {
				t.Fatalf("run degraded to μ %v instead of failing", res.BestMu)
			}
			if !strings.Contains(err.Error(), "dropping rank 2") {
				t.Fatalf("error does not name the corrupt rank 2: %v", err)
			}
		})
	}
}

// TestTypeISeverTrajectoryPreserved kills a slave's connection mid-run
// (sever at its second goodness frame). Goodness is a pure function of
// the placement, so the master's local recompute must land on the exact
// fault-free trajectory: same BestMu as the simulated run, with the lost
// rank on record.
func TestTypeISeverTrajectoryPreserved(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 25, 13)
	ref, err := RunTypeI(prob, detOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	var ch *transport.Chaos
	wcfg := map[int]transport.Config{
		1: {WrapConn: transport.Wrap(&ch, 5, transport.ChaosFault{AtFrame: 2, Action: transport.ChaosSever})},
	}
	res, err := runTCP(t, prob, Options{Procs: 3}, transport.Config{}, wcfg, TypeIRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", res.FailedRanks)
	}
	if res.BestMu != ref.BestMu {
		t.Fatalf("degraded BestMu %.9f != fault-free %.9f (Type I failures must not change the trajectory)",
			res.BestMu, ref.BestMu)
	}
}

// TestTypeIIHangDegraded wedges a slave's writes mid-run — the socket
// stays open, pongs jam behind the hung move frame — and relies on the
// hub's heartbeat timeout to expel it. The master must finish on the
// survivor with the hung rank recorded and a valid best placement.
func TestTypeIIHangDegraded(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 25, 14)
	var ch *transport.Chaos
	wcfg := map[int]transport.Config{
		1: {WrapConn: transport.Wrap(&ch, 6, transport.ChaosFault{AtFrame: 3, Action: transport.ChaosHang})},
	}
	hubCfg := transport.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
	}
	res, err := runTCP(t, prob, Options{Procs: 3}, hubCfg, wcfg, TypeIIRank,
		func() { ch.Close() })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", res.FailedRanks)
	}
	if res.Best == nil || res.BestMu <= 0 {
		t.Fatalf("degraded run produced no usable best (μ=%v)", res.BestMu)
	}
	if _, err := layout.DecodePlacement(prob.Ckt, res.Best.Encode()); err != nil {
		t.Fatalf("degraded best placement invalid: %v", err)
	}
}

// TestTypeIICorruptDegraded flips every payload byte of one slave's move
// patch. The master must reject the patch before it moves a cell, drop
// the rank, and finish on the survivor with a valid best placement.
func TestTypeIICorruptDegraded(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 25, 14)
	var ch *transport.Chaos
	wcfg := map[int]transport.Config{
		1: {WrapConn: transport.Wrap(&ch, 5, transport.ChaosFault{AtFrame: 3, Action: transport.ChaosCorrupt})},
	}
	res, err := runTCP(t, prob, Options{Procs: 3}, transport.Config{}, wcfg, TypeIIRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", res.FailedRanks)
	}
	if res.Best == nil || res.BestMu <= 0 {
		t.Fatalf("degraded run produced no usable best (μ=%v)", res.BestMu)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("degraded best placement invalid: %v", err)
	}
}

// TestTypeIIICorruptDegraded flips every payload byte of one searcher's
// first solution report. The store must reject the frame at decode, drop
// the rank, and finish with the survivors' best.
func TestTypeIIICorruptDegraded(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 40, 15)
	var ch *transport.Chaos
	wcfg := map[int]transport.Config{
		1: {WrapConn: transport.Wrap(&ch, 7, transport.ChaosFault{AtFrame: 1, Action: transport.ChaosCorrupt})},
	}
	res, err := runTCP(t, prob, Options{Procs: 4}, transport.Config{}, wcfg, TypeIIIRank)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.FailedRanks {
		if r == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("FailedRanks = %v, want rank 1 (corrupt reporter)", res.FailedRanks)
	}
	if res.Best == nil || res.BestMu <= 0 {
		t.Fatalf("survivors produced no usable best (μ=%v)", res.BestMu)
	}
}

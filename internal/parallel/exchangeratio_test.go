package parallel_test

import (
	"runtime"
	"testing"

	"simevo/internal/parallel"
)

// exchangeSpeedupFloor is the minimum ratio of the blocking exchange's
// median segment to the asynchronous one's, on the TestGoldenParallel
// Type III runs (s1196 wp, 40 iterations, seed 2006, 4 ranks, retry 5,
// FastEthernet, compute measurement off). A blocking segment is a
// request/reply round trip plus the adoption rebuild; an asynchronous one
// is a post, a poll issue, or a news application with its adoption.
const exchangeSpeedupFloor = 2.0

// TestAsyncExchangeSpeedup compares the median exchange segment of the two
// Type III modes within one test run. The modes alternate, three runs
// each, and the smallest median of each mode is compared. The segments are
// wall-clock timings inside the simulated cluster; the trajectories
// themselves are pinned by TestGoldenParallel.
func TestAsyncExchangeSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio; skipped under -short and -race")
	}
	p := goldenProblem(t)
	var best [2]int64 // blocking, asynchronous
	for i := 0; i < 6; i++ {
		mode := i % 2
		opt := goldenOpts(4)
		opt.Retry = 5
		opt.SyncExchange = mode == 0
		res, err := parallel.RunTypeIII(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		p50 := res.Exchange.P50RoundNs()
		if p50 <= 0 {
			t.Fatalf("no exchange segment recorded (sync %v)", opt.SyncExchange)
		}
		if best[mode] == 0 || p50 < best[mode] {
			best[mode] = p50
		}
	}
	ratio := float64(best[0]) / float64(best[1])
	t.Logf("GOMAXPROCS %d: blocking p50 %d ns, asynchronous p50 %d ns, ratio %.2f× (floor %.1f×)",
		runtime.GOMAXPROCS(0), best[0], best[1], ratio, exchangeSpeedupFloor)
	if ratio < exchangeSpeedupFloor {
		t.Errorf("blocking/asynchronous exchange p50 %.2f×, want ≥ %.1f×", ratio, exchangeSpeedupFloor)
	}
}

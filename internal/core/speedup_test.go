package core

import (
	"runtime"
	"testing"
	"time"

	"simevo/internal/cputime"
	"simevo/internal/fuzzy"
)

// speedupFloors are the minimum speedups of the incremental engine over
// the DisableIncremental reference on the TestGoldenTrajectories s1196-60
// runs (s1196, 60 iterations, seed 2006). Each is the ratio the retired
// simevo-bench baseline committed for the mode, divided by its 15%
// tolerance: 2.7954/1.15, 8.3272/1.15 and 8.6767/1.15, rounded down.
var speedupFloors = []struct {
	obj fuzzy.Objectives
	min float64
}{
	{fuzzy.WirePower, 2.43},
	{fuzzy.WirePowerDelay, 7.24},
	{fuzzy.WirePowerDelayCongest, 7.54},
}

// wpdAllocShareCeiling bounds the allocation share of the incremental wpd
// run's operator time. With evaluation and selection incremental, the
// share has a structural floor near 0.80; a scan regression crosses the
// ceiling.
const wpdAllocShareCeiling = 0.88

// speedupRuns is the number of timed runs per mode; the modes alternate
// and the minima are compared.
const speedupRuns = 3

// TestIncrementalSpeedupOverReference times the incremental engine
// against the DisableIncremental reference on the same problem, within
// one test run, by the CPU time of the running thread, so the ratio holds
// on any host and under the load of concurrently tested packages. The
// trajectories themselves are pinned by TestGoldenTrajectories.
func TestIncrementalSpeedupOverReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio; skipped under -short and -race")
	}
	if !cputime.Supported {
		t.Skip("no per-thread CPU clock on this platform")
	}
	for _, f := range speedupFloors {
		t.Run(f.obj.String(), func(t *testing.T) {
			ckt, cfg := s1196Golden(f.obj, 60)(t)
			inc, err := NewProblem(ckt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.DisableIncremental = true
			ref, err := NewProblem(ckt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var best [2]time.Duration
			var allocShare float64
			for i := 0; i < 2*speedupRuns; i++ {
				mode, p := i%2, inc
				if mode == 1 {
					p = ref
				}
				eng := p.NewEngine(0)
				d, _ := cputime.Thread(func() { eng.Run() })
				if best[mode] == 0 || d < best[mode] {
					best[mode] = d
					if mode == 0 {
						_, _, allocShare = eng.Profile().Shares()
					}
				}
			}
			ratio := float64(best[1]) / float64(best[0])
			t.Logf("GOMAXPROCS %d: incremental %v, reference %v, speedup %.2f× (floor %.2f×), alloc share %.3f",
				runtime.GOMAXPROCS(0), best[0], best[1], ratio, f.min, allocShare)
			if ratio < f.min {
				t.Errorf("incremental speedup over the reference %.2f×, want ≥ %.2f×", ratio, f.min)
			}
			if f.obj == fuzzy.WirePowerDelay && allocShare >= wpdAllocShareCeiling {
				t.Errorf("wpd allocation share %.3f, want < %.2f", allocShare, wpdAllocShareCeiling)
			}
		})
	}
}

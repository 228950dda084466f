package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"simevo/internal/congest"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/telemetry"
)

// goldenTrajectories pins serial SimE trajectories across commits: the
// hash covers every μ(s) of the trace, the best costs, and the best
// placement's fingerprint. A change that is meant to keep results bitwise
// identical (a refactor, a deleted cache, a faster kernel) must leave
// every hash untouched; a change that moves results on purpose updates
// the table and says why.
//
// The s1196 cases run 40 iterations (seed 2006) per objective set. The
// scale case is the benchmark's smoke configuration of its generated
// workload: a 2000-cell ScaledParams circuit, wpc, clustered start, 64
// congestion bins, 4 iterations — a row count where the vacancy scan's
// row and bucket pruning carry real weight, unlike s1196's 22 rows.
//
// The s1196-60 cases are the runs TestIncrementalSpeedupOverReference
// times (60 iterations, seed 2006). They also run the DisableIncremental
// reference, whose hash must equal the incremental one: incremental ≡
// reference over the whole μ trace, not only the best μ. Their best μ
// are 0.6088763216982315 (wp), 0.5988737860956632 (wpd) and
// 0.6689920004674861 (wpdc).
var goldenTrajectories = []struct {
	name      string
	hash      string
	setup     func(t *testing.T) (*netlist.Circuit, Config)
	reference bool
}{
	{"wire+power", "a0a969a6ca9fe0ca", s1196Golden(fuzzy.WirePower, 40), false},
	{"wire+power+delay", "f6fc2f4b06934aeb", s1196Golden(fuzzy.WirePowerDelay, 40), false},
	{"wire+power+congestion", "3df6987c08761db7", s1196Golden(fuzzy.WirePowerCongest, 40), false},
	{"wire+power+delay+congestion", "077c21b1e276f014", s1196Golden(fuzzy.WirePowerDelayCongest, 40), false},
	{"scale-2000-wpc", "11bc723ea1a484a3", scaleGolden, false},
	{"s1196-60-wire+power", "339777eb7e10597e", s1196Golden(fuzzy.WirePower, 60), true},
	{"s1196-60-wire+power+delay", "e16b331a33236cd0", s1196Golden(fuzzy.WirePowerDelay, 60), true},
	{"s1196-60-wire+power+delay+congestion", "b27941d643570d6f", s1196Golden(fuzzy.WirePowerDelayCongest, 60), true},
}

func s1196Golden(obj fuzzy.Objectives, iters int) func(t *testing.T) (*netlist.Circuit, Config) {
	return func(t *testing.T) (*netlist.Circuit, Config) {
		ckt, err := gen.Benchmark("s1196")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(obj)
		cfg.MaxIters = iters
		cfg.Seed = 2006
		return ckt, cfg
	}
}

func scaleGolden(t *testing.T) (*netlist.Circuit, Config) {
	ckt, err := gen.Generate(gen.ScaledParams("scale", 2000, 2006))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePowerCongest)
	cfg.MaxIters = 4
	cfg.Seed = 2006
	cfg.ClusteredStart = true
	cfg.CongestBins = 64
	return ckt, cfg
}

func goldenRun(t *testing.T, ckt *netlist.Circuit, cfg Config) *Result {
	t.Helper()
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.NewEngine(0).Run()
}

// trajectoryHash hashes a run's μ trace, best costs and best placement.
func trajectoryHash(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.MuTrace)))
	for _, mu := range res.MuTrace {
		put(math.Float64bits(mu))
	}
	c := res.BestCosts
	for _, v := range []float64{c.Wire, c.Power, c.Delay, c.Congest} {
		put(math.Float64bits(v))
	}
	put(res.Best.Fingerprint())
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenTrajectories(t *testing.T) {
	for _, g := range goldenTrajectories {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			ckt, cfg := g.setup(t)
			got := trajectoryHash(goldenRun(t, ckt, cfg))
			if got != g.hash {
				t.Errorf("trajectory hash %s, want %s", got, g.hash)
			}
			if g.reference {
				cfg.DisableIncremental = true
				if ref := trajectoryHash(goldenRun(t, ckt, cfg)); ref != got {
					t.Errorf("reference trajectory hash %s, incremental %s", ref, got)
				}
			}
		})
	}
}

// TestGoldenLargeCircuit pins the 100k-cell scale tier bitwise: the
// generated "large" circuit (gen seed 1), wpc, 2 iterations (the cold
// first evaluation and one steady step), seed 2006, clustered start and
// 64 congestion bins — the package default of 16 columns averages so much
// area into each bin at this size that no start ever overflows. The
// clustered start shrinks net boxes, which flattens bbox demand below the
// 2×-average overflow threshold, so the congestion cost is legitimately 0;
// the peak bin demand over the best placement is the nonzero congestion
// signal, and any change to the demand accounting or the trajectory moves
// it. About 2.3 s per iteration on a 2-vCPU x86 host. Skipped under
// -short, and under -race, where the single-goroutine run takes over a
// minute and checks no concurrency.
func TestGoldenLargeCircuit(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("100k-cell run; skipped under -short and -race")
	}
	const (
		bins     = 64
		wantMu   = 0.30233605657259
		wantPeak = 16780.461525917053
	)
	ckt, err := gen.Generate(gen.ScaledParams("large", gen.LargeCells, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePowerCongest)
	cfg.MaxIters = 2
	cfg.Seed = 2006
	cfg.ClusteredStart = true
	cfg.CongestBins = bins
	res := goldenRun(t, ckt, cfg)
	// Engines place into layout.DefaultNumRows rows when cfg.NumRows is 0.
	grid := congest.New(ckt, congest.SpecFor(ckt, layout.DefaultNumRows(ckt), bins),
		congest.PlacementSource{P: res.Best})
	grid.Full(nil)
	if res.BestMu != wantMu || res.BestCosts.Congest != 0 || grid.Peak() != wantPeak {
		t.Errorf("best μ %v, congestion %v, peak demand %v; want %v, 0, %v",
			res.BestMu, res.BestCosts.Congest, grid.Peak(), wantMu, wantPeak)
	}
}

// TestGoldenScanCandidates pins, per catalog circuit, how many vacancy
// candidates the allocation scans are offered over a short wpd run (12
// iterations, seed 2006): every free vacancy of a width-feasible row,
// whether the scan visits it or skips it wholesale. The count follows from
// the trajectory and the width bound alone, not from how well the scan
// prunes, so a sharper bound leaves it unchanged.
func TestGoldenScanCandidates(t *testing.T) {
	want := map[string]uint64{
		"s1196": 639808,
		"s1238": 657095,
		"s1488": 922300,
		"s1494": 833975,
		"s3330": 4094842,
	}
	for _, name := range gen.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tel := scanGoldenRun(t, name)
			if got := tel.ScanVacancies + tel.ScanSkippedBucket; got != want[name] {
				t.Errorf("%d scan candidates, want %d", got, want[name])
			}
		})
	}
}

// TestGoldenScanVisits pins, for the same runs as TestGoldenScanCandidates,
// how many of the offered candidates the scans visit: those neither cut
// with their row nor left outside a row's walk. Unlike the candidate
// count, this follows from how well the scan prunes, so a change that
// loses pruning power fails here and not only in a benchmark. A change
// that sharpens the bounds lowers it on purpose and updates the table.
func TestGoldenScanVisits(t *testing.T) {
	want := map[string]uint64{
		"s1196": 39432,
		"s1238": 40339,
		"s1488": 53579,
		"s1494": 54120,
		"s3330": 180790,
	}
	for _, name := range gen.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := scanGoldenRun(t, name).ScanVacancies; got != want[name] {
				t.Errorf("%d scan visits, want %d", got, want[name])
			}
		})
	}
}

// scanGoldenRun runs the scan goldens' configuration on a catalog circuit
// (wpd, 12 iterations, seed 2006) and returns the run's telemetry.
func scanGoldenRun(t *testing.T, name string) telemetry.EngineSnapshot {
	t.Helper()
	ckt, err := gen.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePowerDelay)
	cfg.MaxIters = 12
	cfg.Seed = 2006
	return goldenRun(t, ckt, cfg).Telemetry
}

package wire_test

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"simevo/internal/core"
	"simevo/internal/cost"
	"simevo/internal/cputime"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

// scanSpeedupFloor is the minimum speedup of the row-sharded ScanBestRows
// (PrepareScan included) over the flat ScanBest oracle on the staged s1196
// wpd allocation pass. Measured with this test on the scan code of commit
// 7282be9, 2-vCPU x86 host, GOMAXPROCS 2, two -count=5 runs while
// internal/core's tests ran: 4.70× to 5.30×, median 4.99×. The floor is
// max(1.5, 4.70 / 1.15), rounded down; 1.5× was the floor of the
// whole-iteration comparison with a flat-scan engine it replaces.
const scanSpeedupFloor = 4.08

const (
	scanWarmSteps = 10 // engine iterations before the staged pass
	scanReps      = 20 // repetitions per cell and scan, one timed loop each
	scanRuns      = 3  // timed passes per scan; the scans alternate
)

// scanPass is one allocation pass of an s1196 wpd engine, staged with the
// wire API exactly as the engine drives it: the selection, the vacancy
// pool, the per-net trial weights and the placement it starts from.
type scanPass struct {
	ckt     *netlist.Circuit
	cfg     core.Config
	start   *layout.Placement
	sel     []netlist.CellID
	weights []float64 // per net: the active objectives' summed trial weight
}

// stageScanPass runs an s1196 wpd engine for scanWarmSteps iterations,
// evaluates it, and selects by the engine's rule (a cell is selected when
// a uniform draw exceeds its goodness plus the bias) from a test-owned
// random stream, sorted worst goodness first.
func stageScanPass(t *testing.T) *scanPass {
	t.Helper()
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePowerDelay)
	cfg.MaxIters = 1 << 30
	cfg.Seed = 2006
	p, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := p.NewEngine(0)
	for i := 0; i < scanWarmSteps; i++ {
		eng.Step()
	}
	eng.EvaluateCosts()
	movable := ckt.Movable()
	good := eng.ComputeGoodness(movable, nil)
	goodOf := make([]float64, len(ckt.Cells))
	r := rng.NewStream(cfg.Seed, 1)
	var sel []netlist.CellID
	for i, id := range movable {
		goodOf[id] = good[i]
		if r.Float64() > min(good[i]+cfg.Bias, 1) {
			sel = append(sel, id)
		}
	}
	slices.SortFunc(sel, func(a, b netlist.CellID) int {
		if goodOf[a] != goodOf[b] {
			if goodOf[a] < goodOf[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})

	// Trial weights as the engine folds them: the weight table of each
	// length-weighted objective, NetScore (the timing criticality) of each
	// scored one, over the pass's starting net lengths.
	start := eng.Placement().Clone()
	inc := wire.NewIncremental(ckt, cfg.WireEstimator)
	inc.Rebuild(start)
	pipe := cost.NewPipeline(cfg.Objectives, ckt, p.Acts, p.Lv, cfg.TimingModel)
	pipe.Full(inc.Lengths(nil))
	weights := make([]float64, ckt.NumNets())
	for _, o := range pipe.Objectives() {
		for n := range weights {
			switch x := o.(type) {
			case cost.LengthWeighted:
				weights[n] += x.Weights()[n]
			case cost.CellScored:
				weights[n] += x.NetScore(netlist.NetID(n))
			}
		}
	}
	return &scanPass{ckt: ckt, cfg: cfg, start: start, sel: sel, weights: weights}
}

// run replays the pass. Per cell it times scanReps flat ScanBest calls
// and scanReps PrepareScan+ScanBestRows calls on the identical candidates
// (flat first when flatFirst), requires identical winners and scores, and
// commits the winner as the engine does. It returns the summed CPU time
// of each scan.
func (s *scanPass) run(t *testing.T, flatFirst bool) (flat, rows time.Duration) {
	ckt, place := s.ckt, s.start.Clone()
	inc := wire.NewIncremental(ckt, s.cfg.WireEstimator)
	inc.Rebuild(place)
	view := inc.BaseView()
	numRows := place.NumRows()
	rowW := make([]int, numRows)
	rowY := make([]float64, numRows)
	for r := range rowW {
		rowW[r] = place.RowWidth(r)
		rowY[r] = layout.RowY(r)
	}
	vacs := make([]wire.Vacancy, len(s.sel))
	for i, id := range s.sel {
		x, y := place.Coord(id)
		ref := place.RemoveToHole(id)
		vacs[i] = wire.Vacancy{X: x, Y: y, Row: ref.Row}
		rowW[ref.Row] -= ckt.Cells[id].Width
	}
	limit := (1 + s.cfg.Alpha) * place.AvgRowWidth()
	var bk wire.VacancyBuckets
	bk.Build(vacs, numRows)
	used := make([]bool, len(vacs))
	rowOK := make([]bool, numRows)
	var set wire.TrialSet
	var nets []netlist.NetID
	var w, key []float64
	var free []int32
	for own, id := range s.sel {
		// The engine's per-cell preparation: lift the cell, order its
		// nets by descending weighted remaining span (ties by net id),
		// compile the trials.
		inc.RemoveCell(id)
		nets = ckt.CellNets(id, nets[:0])
		w, key = w[:0], key[:0]
		for _, n := range nets {
			w = append(w, s.weights[n])
			key = append(key, inc.StoredSpan(n)*s.weights[n])
		}
		for i := 1; i < len(nets); i++ {
			for j := i; j > 0 && (key[j-1] < key[j] || (key[j-1] == key[j] && nets[j-1] > nets[j])); j-- {
				key[j-1], key[j] = key[j], key[j-1]
				nets[j-1], nets[j] = nets[j], nets[j-1]
				w[j-1], w[j] = w[j], w[j-1]
			}
		}
		inc.CompileTrials(&set, nets, w, numRows)
		set.PrepareScan(rowY)

		cw := ckt.Cells[id].Width
		feasible := 0
		for r := range rowOK {
			rowOK[r] = float64(rowW[r]+cw) <= limit
			if rowOK[r] {
				feasible += bk.RowLive(r)
			}
		}
		free = free[:0]
		for v := range vacs {
			if !used[v] {
				free = append(free, int32(v))
			}
		}
		bound0 := math.Inf(1)
		if !used[own] && rowOK[vacs[own].Row] {
			vc := vacs[own]
			bound0 = math.Nextafter(set.Score(view, vc.X, vc.Y, int(vc.Row)), math.Inf(1))
		}

		var fWin, rWin int
		var fScore, rScore float64
		timeFlat := func() {
			d, _ := cputime.Thread(func() {
				for k := 0; k < scanReps; k++ {
					fWin, fScore = set.ScanBest(view, vacs, free, rowOK, 0, len(free), bound0, nil)
				}
			})
			flat += d
		}
		timeRows := func() {
			d, _ := cputime.Thread(func() {
				for k := 0; k < scanReps; k++ {
					set.PrepareScan(rowY)
					rWin, rScore = set.ScanBestRows(view, &bk, rowOK, feasible, bound0, nil)
				}
			})
			rows += d
		}
		if flatFirst {
			timeFlat()
			timeRows()
		} else {
			timeRows()
			timeFlat()
		}
		if fWin != rWin || fScore != rScore {
			t.Fatalf("cell %d: ScanBestRows (%d, %v) != ScanBest (%d, %v)", own, rWin, rScore, fWin, fScore)
		}

		best := fWin
		if best < 0 {
			// The engine's fallback: the free vacancy of least width
			// violation.
			bestViol := 0.0
			for _, v := range free {
				viol := float64(rowW[vacs[v].Row]+cw) - limit
				if best < 0 || viol < bestViol {
					best, bestViol = int(v), viol
				}
			}
		}
		inc.PlaceCell(id, vacs[best].X, vacs[best].Y)
		bk.Commit(int32(best))
		used[best] = true
		rowW[vacs[best].Row] += cw
	}
	return flat, rows
}

// TestScanBestRowsSpeedup times the row-sharded scan against the flat
// reference on the candidates of one s1196 wpd allocation pass, within
// one test run, by the CPU time of the running thread.
func TestScanBestRowsSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio; skipped under -short and -race")
	}
	if !cputime.Supported {
		t.Skip("no per-thread CPU clock on this platform")
	}
	pass := stageScanPass(t)
	var bestFlat, bestRows time.Duration
	for i := 0; i < scanRuns; i++ {
		flat, rows := pass.run(t, i%2 == 0)
		if i == 0 || flat < bestFlat {
			bestFlat = flat
		}
		if i == 0 || rows < bestRows {
			bestRows = rows
		}
	}
	ratio := float64(bestFlat) / float64(bestRows)
	t.Logf("GOMAXPROCS %d: %d cells selected; flat %v, rows %v (%d reps each), speedup %.2f× (floor %.2f×)",
		runtime.GOMAXPROCS(0), len(pass.sel), bestFlat, bestRows, scanReps, ratio, scanSpeedupFloor)
	if ratio < scanSpeedupFloor {
		t.Errorf("ScanBestRows speedup over the flat scan %.2f×, want ≥ %.2f×", ratio, scanSpeedupFloor)
	}
}

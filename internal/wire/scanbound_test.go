package wire

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// intn deals fixture parameters: an rng for the randomized tests, a
// byteSource for the fuzz target.
type intn interface{ Intn(n int) int }

// byteSource deals values from a fuzz input, cycling through it (zeros when
// empty), so inputs of any length map to a valid fixture.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[s.i%len(s.b)])
	s.i++
	return v % n
}

// trunkFixture is a circuit whose hub cells see only Steiner trunks: every
// hub net keeps between minPins and 16 pins once the hub is lifted out.
// Pin coordinates sit on a coarse grid (many duplicates), off row
// centerlines as well as on them: x = x0 + k·dx for k < 48, y = y0 + k·dy
// for k < 4·rows, with row r's centerline at rowY(r) = y0 + (4r+2)·dy.
// The narrow grid (half units near 0, layout.RowY rows) keeps every float
// sum exact; the wide one puts tightly clustered pins at non-dyadic
// coordinates near 4000 and 3000, where the prefix sums behind the trunk
// branch sums round at the magnitude of the coordinates, not of the net.
type trunkFixture struct {
	ckt            *netlist.Circuit
	coords         *mutableCoords
	hubs           []netlist.CellID
	rows           int
	x0, dx, y0, dy float64
}

func (f *trunkFixture) xAt(k int) float64  { return f.x0 + float64(k)*f.dx }
func (f *trunkFixture) rowY(r int) float64 { return f.y0 + float64(4*r+2)*f.dy }

func newTrunkFixture(t testing.TB, src intn, minPins int, wide bool) *trunkFixture {
	t.Helper()
	pins := func() int { return minPins + src.Intn(17-minPins) }
	b := netlist.NewBuilder("trunks")
	nHub := 1 + src.Intn(3)
	for h := 0; h < nHub; h++ {
		nIn := 1 + src.Intn(3)
		var ins []string
		for j := 0; j < nIn; j++ {
			// The pad drives the hub and k-1 buffers: k pins besides the hub.
			pad := fmt.Sprintf("i%d_%d", h, j)
			b.AddInput(pad)
			ins = append(ins, pad)
			for k := pins(); k > 1; k-- {
				buf := fmt.Sprintf("b%d_%d_%d", h, j, k)
				b.AddGate(buf, netlist.Buf, []string{pad}, 0)
				b.AddOutput(buf)
			}
		}
		typ := netlist.And
		if nIn == 1 {
			typ = netlist.Buf
		}
		hub := fmt.Sprintf("h%d", h)
		b.AddGate(hub, typ, ins, 0)
		for k := pins(); k > 0; k-- {
			buf := fmt.Sprintf("o%d_%d", h, k)
			b.AddGate(buf, netlist.Buf, []string{hub}, 0)
			b.AddOutput(buf)
		}
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := &trunkFixture{ckt: ckt, rows: 8, dx: 0.5, dy: layout.RowPitch / 4}
	if wide {
		f.x0, f.dx, f.y0, f.dy = 4000, 0.1, 3000.1, 0.07
	}
	f.coords = &mutableCoords{x: make([]float64, len(ckt.Cells)), y: make([]float64, len(ckt.Cells))}
	for i := range ckt.Cells {
		f.coords.x[i] = f.xAt(src.Intn(48))
		f.coords.y[i] = f.y0 + float64(src.Intn(4*f.rows))*f.dy
		if strings.HasPrefix(ckt.Cells[i].Name, "h") {
			f.hubs = append(f.hubs, netlist.CellID(i))
		}
	}
	return f
}

func fixtureWeights(src intn, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1+src.Intn(8)) / 4
	}
	return w
}

// xPenOf is the x-extension a candidate at x forces on an item's stored box.
func xPenOf(it *compiledTrial, x float64) float64 {
	switch {
	case it.kind == trialZero:
		return 0
	case x < it.minX:
		return it.minX - x
	case x > it.maxX:
		return x - it.maxX
	}
	return 0
}

// TestScanBoundsSound checks the scan's lower bounds against exact trial
// costs on Steiner trunks with 3-16 stored pins (duplicate coordinates
// included), for every row and for x inside and outside the pin spans:
// each item's rowTail term plus its x-penalty stays under the item's
// weighted trial length, and rowBound plus the x envelope stays under the
// whole trial score — each up to scanSlack, as the scan compares them.
// Half the fixtures use the wide grid, where the bounds and the trial
// costs round at the magnitude of the coordinates and candidates coincide
// with pins. It also requires the branch-excess term to be exercised: some
// trunk must carry eX > 0, and some row bound must come out strictly
// sharper than the bound without it.
//
// The best-first row order is checked too: moving away from anchorRow on
// either side, rowBound never falls by more than scanSlack allows, which
// is what lets the scan cut a whole side at its first dominated row. Some
// fixture must put the y cut interval strictly between two rows whose
// bounds differ, where the anchor is the smaller of the two.
//
// The trunk window is checked the same way. Each vertically cheaper
// trunk's corrected term, its rowTail share plus w·xPen plus w·min(Hc −
// Vc, dist(x, medI) − xPen), stays under its weighted trial length. For
// bounds taken from the row's own scores, every grid x outside the
// window trunkWindow returns scores at or above the bound. Some window
// must exclude a grid point, so the check cannot pass vacuously.
func TestScanBoundsSound(t *testing.T) {
	r := rng.New(0x5eed)
	sawExcess, sawSharper, sawBetween := false, false, false
	sawVertical, sawWindow := false, false
	for trial := 0; trial < 80; trial++ {
		f := newTrunkFixture(t, r, 3, trial%2 == 1)
		inc := NewIncremental(f.ckt)
		inc.Rebuild(f.coords)
		centers := rowCenters(f.rowY, f.rows)
		for _, hub := range f.hubs {
			nets := f.ckt.CellNets(hub, nil)
			inc.RemoveCell(hub)
			var set TrialSet
			inc.CompileTrials(&set, nets, fixtureWeights(r, len(nets)))
			set.PrepareScan(centers)
			for i := range set.items {
				it := &set.items[i]
				if it.kind != trialTrunk {
					t.Fatalf("trial %d: item %d is kind %d, want a trunk", trial, i, it.kind)
				}
				// Only the rounding allowance (branchExcess) may take the
				// excess below 0.
				allow := 4 * 17 * 17 * 0x1p-52 * max(f.xAt(48), f.y0+float64(4*f.rows)*f.dy)
				if it.ex < -allow || it.ey < -allow {
					t.Fatalf("trial %d: branch excess (%v, %v) below the rounding allowance", trial, it.ex, it.ey)
				}
				if len(it.xv) == 3 && (it.ex > 0 || it.ey > 0) {
					t.Fatalf("trial %d: 3 stored pins with excess (%v, %v)", trial, it.ex, it.ey)
				}
				sawExcess = sawExcess || it.ex > 0
			}
			a := set.anchorRow
			for row := a + 1; row < f.rows; row++ {
				if set.rowBound(row) < set.rowBound(row-1)*scanSlack {
					t.Fatalf("trial %d: rowBound falls from row %d to %d above anchor %d: %v -> %v",
						trial, row-1, row, a, set.rowBound(row-1), set.rowBound(row))
				}
			}
			for row := a - 1; row >= 0; row-- {
				if set.rowBound(row) < set.rowBound(row+1)*scanSlack {
					t.Fatalf("trial %d: rowBound falls from row %d to %d below anchor %d: %v -> %v",
						trial, row+1, row, a, set.rowBound(row+1), set.rowBound(row))
				}
			}
			lo, hi := set.cutInterval(set.ylo, set.yhi)
			lo, hi = min(lo, hi), max(lo, hi)
			for b := max(a-1, 0); b <= min(a, f.rows-2); b++ { // rows b, b+1 bracket the anchor
				if centers[b] < lo && hi < centers[b+1] && set.rowBound(b) != set.rowBound(b+1) {
					sawBetween = true
				}
			}
			for row := 0; row < f.rows; row++ {
				set.fillRowTail(row)
				y := f.rowY(row)
				for i := range set.items {
					it := &set.items[i]
					if it.ySpan < it.yBranch && it.ySpan+it.ex > it.ySpan {
						sawSharper = true
					}
				}
				scores := make([]float64, 0, 60)
				for k := -6; k < 54; k++ {
					x := f.xAt(k)
					score := set.Score(x, y)
					scores = append(scores, score)
					if lb := set.rowBound(row) + set.envAt(set.envSeg(x), x); lb*scanSlack > score {
						t.Fatalf("trial %d row %d x %v: rowBound+env %v > score %v", trial, row, x, lb, score)
					}
					whole := set.rowTail[0]
					for i := range set.items {
						it := &set.items[i]
						cost := inc.TrialNetAt(nets[i], x, y) * it.w
						pen := it.w * xPenOf(it, x)
						whole += pen
						term := set.rowTail[i] - set.rowTail[i+1] + pen
						if term*scanSlack > cost {
							t.Fatalf("trial %d row %d x %v item %d: bound %v > cost %v", trial, row, x, i, term, cost)
						}
						if gap := it.yBranch - (it.ySpan + it.ex); gap > 0 {
							sawVertical = true
							n := len(it.xv)
							dist := max(it.xv[(n-1)/2]-x, x-it.xv[n/2], 0)
							if corr := term + it.w*min(gap, dist-xPenOf(it, x)); corr*scanSlack > cost {
								t.Fatalf("trial %d row %d x %v item %d: window-corrected bound %v > cost %v",
									trial, row, x, i, corr, cost)
							}
						}
					}
					if whole*scanSlack > score {
						t.Fatalf("trial %d row %d x %v: rowTail+xPen %v > score %v", trial, row, x, whole, score)
					}
				}
				for j := 0; j < len(scores); j += 3 {
					bound := scores[j]
					b := bound/scanSlack - set.rowTail[0] - set.minEnv
					if b <= 0 {
						continue
					}
					wlo, whi := set.trunkWindow(b)
					for k, score := range scores {
						if x := f.xAt(k - 6); x >= wlo && x < whi {
							continue
						}
						sawWindow = true
						if score < bound {
							t.Fatalf("trial %d row %d x %v: outside window [%v, %v) for bound %v, score %v",
								trial, row, f.xAt(k-6), wlo, whi, bound, score)
						}
					}
				}
			}
			inc.RestoreCell(hub)
		}
	}
	if !sawExcess || !sawSharper {
		t.Fatalf("branch excess never exercised: eX > 0 seen %v, sharper row bound seen %v", sawExcess, sawSharper)
	}
	if !sawBetween {
		t.Fatal("no fixture put the y cut interval between two rows of different bound")
	}
	if !sawVertical || !sawWindow {
		t.Fatalf("trunk window never exercised: vertically cheaper trunk seen %v, excluded grid point seen %v",
			sawVertical, sawWindow)
	}
}

// TestRowBoundRoundingOnTallDie checks rowBound on a tall die: 2000 rows
// with every pin in the top six, far from the origin of y. The bound is
// summed per row from C and non-negative penalty terms, so its rounding
// stays relative to its own value, and scanSlack alone must keep rowBound
// plus the x envelope under the score on the rows the pins sit in.
func TestRowBoundRoundingOnTallDie(t *testing.T) {
	r := rng.New(7)
	const rows = 2000
	rowY := func(k int) float64 { return (float64(k) + 0.5) * layout.RowPitch }
	centers := rowCenters(rowY, rows)
	for trial := 0; trial < 200; trial++ {
		f := newTrunkFixture(t, r, 3, false)
		for i := range f.coords.y {
			f.coords.x[i] = 1000 + float64(r.Intn(40))*0.37
			f.coords.y[i] = rowY(rows - 1 - r.Intn(6))
		}
		inc := NewIncremental(f.ckt)
		inc.Rebuild(f.coords)
		for _, hub := range f.hubs {
			nets := f.ckt.CellNets(hub, nil)
			inc.RemoveCell(hub)
			w := make([]float64, len(nets))
			for i := range w {
				w[i] = 0.01 + r.Float64()
			}
			var set TrialSet
			inc.CompileTrials(&set, nets, w)
			set.PrepareScan(centers)
			for row := rows - 6; row < rows; row++ {
				y := rowY(row)
				for k := 0; k < 40; k++ {
					x := 1000 + float64(k)*0.37
					score := set.Score(x, y)
					if lb := set.rowBound(row) + set.envAt(set.envSeg(x), x); lb*scanSlack > score {
						t.Fatalf("trial %d row %d x %v: rowBound+env %v > score %v", trial, row, x, lb, score)
					}
				}
			}
			inc.RestoreCell(hub)
		}
	}
}

// vacancyRows returns the rows a fuzzed vacancy pool draws from, by
// shape%3: every row, a block of up to three contiguous rows from row
// shape/3 mod rows, or every third row from row shape/3 mod 3. The last
// two are a Type II rank's own rows at p = 3 under the fixed pattern, in
// its even (contiguous) and odd (strided) iterations: every other row of
// the die is empty.
func vacancyRows(shape byte, rows int) []int {
	k := int(shape / 3)
	var pool []int
	for r := 0; r < rows; r++ {
		switch shape % 3 {
		case 0:
			pool = append(pool, r)
		case 1:
			if lo := k % rows; r >= lo && r < lo+1+k/rows%3 {
				pool = append(pool, r)
			}
		case 2:
			if r%3 == k%3 {
				pool = append(pool, r)
			}
		}
	}
	return pool
}

// FuzzScanBestRows runs an allocation-like sequence over a fuzzed trunk
// fixture — grid, pins, weights, vacancy pool, feasible rows and seed
// bounds all come from the input: each selected cell is scanned, its winner
// placed and committed, then the next cell is scanned against the shrunken
// pool. Vacancies share the pins' grid, so many tie exactly. Every winner
// must be bitwise the flat reference scan's and the first minimum of a
// plain Score loop, and the scan must count every free vacancy of a
// feasible row exactly once and enter only the rows of its list. An odd
// first byte selects the wide grid, and shape the rows that hold
// vacancies (vacancyRows).
func FuzzScanBestRows(f *testing.F) {
	f.Add([]byte{0}, byte(0))
	f.Add([]byte{1}, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(0))
	f.Add([]byte("trunk-heavy vacancy scan with duplicate pins"), byte(0))
	f.Add([]byte("wide trunk-heavy scan with clustered pins"), byte(0))
	f.Add([]byte{255, 13, 0, 0, 77, 3, 3, 3, 200, 41, 9, 128}, byte(0))
	f.Add([]byte{3, 255, 2, 3, 16, 16, 16, 47, 46, 45, 7, 7, 7, 7, 0, 1, 2, 3, 4, 5, 6, 7}, byte(0))
	// Wide grid: without the trunk rounding allowance the row bound
	// ("12") and the flat scan's stored-span bound ("C200") round a hair
	// above the winner's computed score; with every pin of a trunk at one
	// point ("1j") an unclamped branch sum rounds below 0.
	f.Add([]byte("12"), byte(0))
	f.Add([]byte("C200"), byte(0))
	f.Add([]byte("1j"), byte(0))
	// Trunk windows engage. Tall narrow trunks, vertically cheaper in
	// most rows, on the narrow grid ("d\r>", ">\xa1...") and the wide one
	// ("_h...", "\xffD\x15"); trunks whose stored pins share one x, on
	// both grids ("\xf4>...", "\xf1\x1d`\x16", "\xf7\xdd\xca\r").
	f.Add([]byte("d\r>"), byte(0))
	f.Add([]byte(">\xa1\xd0\xd1\xcbI\xa9"), byte(0))
	f.Add([]byte("_h\xd4\n\xa9\xfb\xe2\xfc\x9b9"), byte(0))
	f.Add([]byte("\xffD\x15"), byte(0))
	f.Add([]byte("\xf4>\xd7\xdd\xc4Ld."), byte(0))
	f.Add([]byte("\xf1\x1d`\x16"), byte(0))
	f.Add([]byte("\xf7\xdd\xca\r"), byte(0))
	// The first hub's y cut interval, where the best-first row order
	// starts, lies below row 0 ("!c"), above the last row ("_", wide
	// grid), strictly between two rows of different bound ("@G"), and
	// across several rows ("TO$:(k").
	f.Add([]byte("!c"), byte(0))
	f.Add([]byte("_"), byte(0))
	f.Add([]byte("@G"), byte(0))
	f.Add([]byte("TO$:(k"), byte(0))
	// Type II shapes (vacancyRows): vacancies in a contiguous block
	// (shapes 76, 127, 178) or in every third row (26, 116, 176), with
	// width-infeasible rows on both sides of the anchor, which the row
	// list leaves out.
	f.Add([]byte("4~5"), byte(26))
	f.Add([]byte("\"^e*![VTN"), byte(76))
	f.Add([]byte("20.DG"), byte(127))
	f.Add([]byte("!7<%03\",U`"), byte(178))
	f.Add([]byte(")CtSx"), byte(176))
	f.Add([]byte("kMm^c6l"), byte(116))
	// The row list: empty while free vacancies remain, so the engine's
	// violation fallback runs ("F<[$tS", "/<x0"); without the anchor's
	// row, as on a Type II rank whose anchor lies in a foreign row
	// ("OXDb", "x=A&f;Ag"); with gaps on both sides of the anchor
	// (".+g-Om>wY", "i}L;VaIpO").
	f.Add([]byte("F<[$tS"), byte(202))
	f.Add([]byte("/<x0"), byte(245))
	f.Add([]byte("OXDb"), byte(47))
	f.Add([]byte("x=A&f;Ag"), byte(74))
	f.Add([]byte(".+g-Om>wY"), byte(186))
	f.Add([]byte("i}L;VaIpO"), byte(146))
	f.Fuzz(func(t *testing.T, data []byte, shape byte) {
		src := &byteSource{b: data}
		fx := newTrunkFixture(t, src, 3, src.Intn(2) == 1)
		inc := NewIncremental(fx.ckt)
		inc.Rebuild(fx.coords)

		sel := append([]netlist.CellID(nil), fx.hubs...)
		movable := fx.ckt.Movable()
		picked := make(map[netlist.CellID]bool)
		for _, h := range sel {
			picked[h] = true
		}
		for k := src.Intn(6); k > 0; k-- {
			if id := movable[src.Intn(len(movable))]; !picked[id] {
				picked[id] = true
				sel = append(sel, id)
			}
		}
		nVac := len(sel) + src.Intn(24)
		vacs := make([]Vacancy, nVac)
		pool := vacancyRows(shape, fx.rows)
		for i := range vacs {
			row := int32(pool[src.Intn(len(pool))])
			vacs[i] = Vacancy{X: fx.xAt(src.Intn(48)), Y: fx.rowY(int(row)), Row: row}
		}
		var bk VacancyBuckets
		bk.Build(vacs, fx.rows)
		free := make([]int32, nVac)
		for i := range free {
			free[i] = int32(i)
		}
		rowOK := make([]bool, fx.rows)
		centers := rowCenters(fx.rowY, fx.rows)
		var set TrialSet
		for own, id := range sel {
			nets := fx.ckt.CellNets(id, nil)
			inc.RemoveCell(id)
			inc.CompileTrials(&set, nets, fixtureWeights(src, len(nets)))
			set.PrepareScan(centers)
			feasible := uint64(0)
			for r := range rowOK {
				rowOK[r] = src.Intn(6) != 0
			}
			for _, v := range free {
				if rowOK[vacs[v].Row] {
					feasible++
				}
			}
			bound0 := 1e308
			if src.Intn(2) == 0 && bucketFree(&bk, own) && rowOK[vacs[own].Row] {
				score := set.Score(vacs[own].X, vacs[own].Y)
				bound0 = math.Nextafter(score, math.Inf(1))
			}

			want, wantScore := set.ScanBest(vacs, free, rowOK, 0, len(free), bound0, nil)
			brute, bruteScore := -1, bound0
			for _, v := range free {
				if vc := vacs[v]; rowOK[vc.Row] {
					if s := set.Score(vc.X, vc.Y); s < bruteScore {
						brute, bruteScore = int(v), s
					}
				}
			}
			if brute != want || (brute >= 0 && bruteScore != wantScore) {
				t.Fatalf("cell %d: ScanBest (%d, %v) != Score loop (%d, %v)", own, want, wantScore, brute, bruteScore)
			}
			var st ScanStats
			list, live := scanList(&bk, rowOK)
			got, gotScore := set.ScanBestRows(&bk, list, live, bound0, &st)
			if got != want || gotScore != wantScore {
				t.Fatalf("cell %d: ScanBestRows (%d, %v) != ScanBest (%d, %v)", own, got, gotScore, want, wantScore)
			}
			if n := st.Vacancies + st.SkippedBucket; n != feasible || uint64(live) != feasible || st.Vacancies > feasible {
				t.Fatalf("cell %d: scan counted %d candidates (%d visited, %d live), %d free feasible",
					own, n, st.Vacancies, live, feasible)
			}
			checkRowsVisited(t, fmt.Sprintf("cell %d", own), &st, list)

			if want < 0 {
				want = int(free[0]) // the engine's width-violation fallback
			}
			inc.PlaceCell(id, vacs[want].X, vacs[want].Y)
			bk.Commit(int32(want))
			for i, v := range free {
				if int(v) == want {
					free = append(free[:i], free[i+1:]...)
					break
				}
			}
			if len(free) == 0 {
				return
			}
		}
	})
}

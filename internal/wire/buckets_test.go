package wire

import (
	"fmt"
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// catalogVacancies captures a vacancy pool the way the engine's allocation
// pass does — one slot per selected cell, at the cell's committed
// coordinate — over a random selection of the named benchmark circuit's
// movable cells.
func catalogVacancies(t *testing.T, name string, keepOneIn int, seed uint64) ([]Vacancy, int) {
	t.Helper()
	ckt, err := gen.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := layout.DefaultNumRows(ckt)
	place := layout.NewRandom(ckt, rows, rng.New(9))
	r := rng.New(seed)
	var vacs []Vacancy
	for _, id := range ckt.Movable() {
		if r.Intn(keepOneIn) != 0 {
			continue
		}
		x, y := place.Coord(id)
		vacs = append(vacs, Vacancy{X: x, Y: y, Row: int32(place.Slot(id).Row)})
	}
	if len(vacs) < 2 {
		t.Fatalf("%s: vacancy pool too small (%d)", name, len(vacs))
	}
	return vacs, rows
}

// bucketFree reports whether vacancy v sits in its row's live prefix.
func bucketFree(b *VacancyBuckets, v int) bool {
	p := b.pos[v]
	r := b.rowAt[p]
	return p < b.start[r]+b.rowN[r]
}

// scanList lists, ascending, the rows ScanBestRows walks, as the engine
// lists them: the rowOK rows that hold a free vacancy. It also returns
// their free vacancies, the feasible count ScanBestRows takes.
func scanList(b *VacancyBuckets, rowOK []bool) (rows []int, feasible int) {
	for r, ok := range rowOK {
		if live := b.RowLive(r); ok && live != 0 {
			rows = append(rows, r)
			feasible += live
		}
	}
	return rows, feasible
}

// checkRowsVisited fails unless the scan counted only listed rows, each at
// most once, and reached at least one when the list is not empty.
func checkRowsVisited(t *testing.T, tag string, st *ScanStats, rows []int) {
	t.Helper()
	if st.RowsVisited > uint64(len(rows)) || (len(rows) > 0 && st.RowsVisited == 0) {
		t.Fatalf("%s: scan visited %d rows of a %d-row list", tag, st.RowsVisited, len(rows))
	}
}

// rowCenters tabulates yOf over rows — the row centerlines PrepareScan
// takes.
func rowCenters(yOf func(int) float64, rows int) []float64 {
	ys := make([]float64, rows)
	for r := range ys {
		ys[r] = yOf(r)
	}
	return ys
}

// liveTotal counts the free vacancies across all rows.
func liveTotal(b *VacancyBuckets) int {
	n := 0
	for _, c := range b.rowN {
		n += int(c)
	}
	return n
}

// requireBucketsEqual asserts two bucket structures over the same vacancy
// pool agree on every row's live prefix — order and coordinates — and that
// both keep their position tables consistent: pos inverts order, rowAt
// stays within each row's region, and every live prefix is x-sorted
// (ties by index).
func requireBucketsEqual(t *testing.T, tag string, got, want *VacancyBuckets, vacs []Vacancy, rows int) {
	t.Helper()
	if liveTotal(got) != liveTotal(want) {
		t.Fatalf("%s: live totals %d vs %d", tag, liveTotal(got), liveTotal(want))
	}
	for _, b := range []*VacancyBuckets{got, want} {
		for p, v := range b.order {
			if int(b.pos[v]) != p || b.xs[p] != vacs[v].X || b.rowAt[p] != vacs[v].Row {
				t.Fatalf("%s: position %d (vacancy %d) inconsistent", tag, p, v)
			}
		}
	}
	for r := 0; r < rows; r++ {
		glo, ghi := got.liveSpan(r)
		wlo, whi := want.liveSpan(r)
		if glo != wlo || ghi != whi {
			t.Fatalf("%s: row %d live [%d,%d) vs [%d,%d)", tag, r, glo, ghi, wlo, whi)
		}
		for p := glo; p < ghi; p++ {
			if got.order[p] != want.order[p] || got.xs[p] != want.xs[p] {
				t.Fatalf("%s: row %d pos %d: (%d, %v) vs (%d, %v)", tag, r, p,
					got.order[p], got.xs[p], want.order[p], want.xs[p])
			}
			if p > glo {
				a, b := got.order[p-1], got.order[p]
				if vacs[a].X > vacs[b].X || (vacs[a].X == vacs[b].X && a > b) {
					t.Fatalf("%s: row %d live prefix unsorted at %d", tag, r, p)
				}
			}
		}
	}
}

// TestVacancyBucketsJournalMatchesRebuild drives 10k randomized commits —
// including idempotent repeats, and a fresh Build whenever the pool runs
// dry — against the row buckets of every bundled benchmark circuit and
// asserts, at checkpoints and at the end, that the journaled state is
// identical to a from-scratch Build replayed to the same occupancy.
func TestVacancyBucketsJournalMatchesRebuild(t *testing.T) {
	const ops = 10000
	for _, name := range gen.Catalog() {
		t.Run(name, func(t *testing.T) {
			vacs, rows := catalogVacancies(t, name, 2, 41)
			var b VacancyBuckets
			b.Build(vacs, rows)
			r := rng.New(0x6a09)
			dead := make([]bool, len(vacs))
			for op := 1; op <= ops; op++ {
				if liveTotal(&b) == 0 {
					b.Build(vacs, rows)
					clear(dead)
				}
				v := int32(r.Intn(len(vacs)))
				b.Commit(v)
				dead[v] = true
				if op%250 == 0 || op == ops {
					var fresh VacancyBuckets
					fresh.Build(vacs, rows)
					deadN := 0
					for i, d := range dead {
						if d {
							fresh.Commit(int32(i))
							deadN++
						}
					}
					if liveTotal(&b) != len(vacs)-deadN {
						t.Fatalf("op %d: journal live %d, mirror says %d", op, liveTotal(&b), len(vacs)-deadN)
					}
					for v := range vacs {
						if bucketFree(&b, v) == dead[v] {
							t.Fatalf("op %d: vacancy %d free=%v, mirror dead=%v", op, v, !dead[v], dead[v])
						}
					}
					requireBucketsEqual(t, name, &b, &fresh, vacs, rows)
				}
			}
		})
	}
}

// scanState compiles a random cell's trials and a bucketed vacancy pool
// (with a committed subset), returning everything both scan paths need.
type scanState struct {
	set   TrialSet
	vacs  []Vacancy
	bk    VacancyBuckets
	free  []int32 // live vacancies, ascending index — the flat scan's input
	rowOK []bool
	rows  int
}

// TestScanBestRowsMatchesFlatScan is the sharded-scan equivalence test:
// across random cells, vacancy pools (with committed entries and
// infeasible rows), and seed bounds, ScanBestRows must return bitwise the
// same (winner, score) as the flat ScanBest over the live list — which
// TestTrialSetMatchesNetTrials in turn pins to the brute-force
// ScoreBounded loop. Every fourth step empties the row list (every row too
// narrow, or every vacancy taken: the engine's violation fallback runs),
// the next leaves the anchor row out of it (a Type II rank whose anchor
// lies in a foreign row), and the next leaves gaps on both sides of the
// anchor. The generated circuit mixes bbox and trunk nets; the
// trunk-heavy fixtures (Steiner nets keeping 4-16 pins besides the
// trialled hub) make the branch-excess bound carry real weight.
func TestScanBestRowsMatchesFlatScan(t *testing.T) {
	ckt := testCircuit(t, 36)
	place := layout.NewRandom(ckt, 8, rng.New(5))
	checkScanMatchesFlat(t, "generated", ckt, place, place.NumRows(),
		ckt.Movable(), rng.New(0xb0c5), 80)
	r := rng.New(0x7b0c)
	sawExcess := false
	for fix := 0; fix < 8; fix++ {
		f := newTrunkFixture(t, r, 4, false)
		if checkScanMatchesFlat(t, fmt.Sprintf("trunks %d", fix), f.ckt, f.coords, f.rows,
			f.hubs, r, 20) {
			sawExcess = true
		}
	}
	if !sawExcess {
		t.Fatal("trunk-heavy case compiled no item with a nonzero x branch excess")
	}
}

// checkScanMatchesFlat runs steps random scans of the given cells and
// reports whether any compiled item carried a nonzero x branch excess.
func checkScanMatchesFlat(t *testing.T, tag string, ckt *netlist.Circuit, coords Coords, rows int,
	cells []netlist.CellID, r *rng.R, steps int) (sawExcess bool) {
	t.Helper()
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)
	var s scanState
	s.rows = rows
	for step := 0; step < steps; step++ {
		id := cells[r.Intn(len(cells))]
		nets := ckt.CellNets(id, nil)
		weights := make([]float64, len(nets))
		for i := range weights {
			weights[i] = 1 + float64(r.Intn(8))/4
		}
		inc.RemoveCell(id)
		inc.CompileTrials(&s.set, nets, weights)
		for i := range s.set.items {
			sawExcess = sawExcess || s.set.items[i].ex > 0
		}
		s.set.PrepareScan(rowCenters(layout.RowY, s.rows))
		anchor := s.set.anchorRow

		nVac := 8 + r.Intn(40)
		s.vacs = s.vacs[:0]
		for i := 0; i < nVac; i++ {
			row := int32(r.Intn(s.rows))
			s.vacs = append(s.vacs, Vacancy{
				X: float64(r.Intn(60)) / 2, Y: layout.RowY(int(row)), Row: row,
			})
		}
		s.bk.Build(s.vacs, s.rows)
		for i := 0; i < nVac/4; i++ {
			s.bk.Commit(int32(r.Intn(nVac)))
		}
		if step%8 == 5 { // every vacancy taken
			for v := 0; v < nVac; v++ {
				s.bk.Commit(int32(v))
			}
		}
		s.free = s.free[:0]
		for v := 0; v < nVac; v++ {
			if bucketFree(&s.bk, v) {
				s.free = append(s.free, int32(v))
			}
		}
		s.rowOK = s.rowOK[:0]
		for row := 0; row < s.rows; row++ {
			ok := r.Intn(8) != 0
			switch step % 4 {
			case 1: // the list is empty: every row too narrow, or full
				ok = ok && step%8 == 5
			case 2: // the anchor lies in a row the list leaves out
				ok = ok && row != anchor
			case 3: // gaps on both sides of the anchor
				ok = ok && (row-anchor)%2 == 0
			}
			s.rowOK = append(s.rowOK, ok)
		}

		// Alternate the unbounded scan with an engine-style seed bound
		// (nextafter above a random live vacancy's exact score).
		bound0 := 1e308
		if step%2 == 1 && len(s.free) > 0 {
			v := s.free[r.Intn(len(s.free))]
			if s.rowOK[s.vacs[v].Row] {
				score := s.set.Score(s.vacs[v].X, s.vacs[v].Y)
				bound0 = math.Nextafter(score, math.Inf(1))
			}
		}

		var st, wantSt ScanStats
		list, feasible := scanList(&s.bk, s.rowOK)
		if step%4 == 1 && len(list) != 0 {
			t.Fatalf("%s step %d: row list %v, want it empty", tag, step, list)
		}
		gotBest, gotScore := s.set.ScanBestRows(&s.bk, list, feasible, bound0, &st)
		wantBest, wantScore := s.set.ScanBest(s.vacs, s.free, s.rowOK, 0, len(s.free), bound0, &wantSt)
		if gotBest != wantBest || gotScore != wantScore {
			t.Fatalf("%s step %d: ScanBestRows (%d, %v) != ScanBest (%d, %v)",
				tag, step, gotBest, gotScore, wantBest, wantScore)
		}
		checkRowsVisited(t, fmt.Sprintf("%s step %d", tag, step), &st, list)
		// Every free vacancy of a feasible row is a candidate, visited at
		// most once or else skipped, exactly as the flat scan counts its
		// visits.
		if n := st.Vacancies + st.SkippedBucket; n != wantSt.Vacancies || uint64(feasible) != n || st.Vacancies > n {
			t.Fatalf("%s step %d: scan counted %d candidates (%d visited, %d feasible), flat scan %d",
				tag, step, n, st.Vacancies, feasible, wantSt.Vacancies)
		}
		inc.RestoreCell(id)
	}
	return sawExcess
}

// TestScanBestRowsTieHeavy pins the earliest-index tie rule under the
// out-of-order bucket walk: a seeded pool where many vacancies share exact
// coordinates (so their trial scores are bitwise equal) must always
// resolve to the lowest vacancy index among the minimum-score candidates —
// the same winner the in-order reference loop picks.
func TestScanBestRowsTieHeavy(t *testing.T) {
	ckt := testCircuit(t, 36)
	movable := ckt.Movable()
	place := layout.NewRandom(ckt, 8, rng.New(5))
	inc := NewIncremental(ckt)
	inc.Rebuild(place)
	r := rng.New(0x71e5)
	rows := place.NumRows()
	var set TrialSet

	for step := 0; step < 60; step++ {
		id := movable[r.Intn(len(movable))]
		nets := ckt.CellNets(id, nil)
		weights := make([]float64, len(nets))
		for i := range weights {
			weights[i] = 1 + float64(r.Intn(8))/4
		}
		inc.RemoveCell(id)
		inc.CompileTrials(&set, nets, weights)

		// Few distinct positions, many copies each: most scans tie.
		nPos := 1 + r.Intn(4)
		type pos struct {
			x   float64
			row int32
		}
		dist := make([]pos, nPos)
		for i := range dist {
			dist[i] = pos{x: float64(r.Intn(20)) / 2, row: int32(r.Intn(rows))}
		}
		nVac := 30
		vacs := make([]Vacancy, nVac)
		for i := range vacs {
			p := dist[r.Intn(nPos)]
			vacs[i] = Vacancy{X: p.x, Y: layout.RowY(int(p.row)), Row: p.row}
		}
		var bk VacancyBuckets
		bk.Build(vacs, rows)
		rowOK := make([]bool, rows)
		for i := range rowOK {
			rowOK[i] = true
		}

		set.PrepareScan(rowCenters(layout.RowY, rows))
		list, feasible := scanList(&bk, rowOK)
		got, gotScore := set.ScanBestRows(&bk, list, feasible, 1e308, nil)

		// Brute-force reference: first index with the strictly smallest
		// exact score.
		want, wantScore := -1, 0.0
		for v := range vacs {
			score := set.Score(vacs[v].X, vacs[v].Y)
			if want < 0 || score < wantScore {
				want, wantScore = v, score
			}
		}
		if got != want || gotScore != wantScore {
			t.Fatalf("step %d: tie resolved to %d (%v), want earliest index %d (%v)",
				step, got, gotScore, want, wantScore)
		}
		inc.RestoreCell(id)
	}
}

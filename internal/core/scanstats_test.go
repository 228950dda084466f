package core

import (
	"testing"

	"simevo/internal/fuzzy"
	"simevo/internal/gen"
)

// TestScanCountsEveryFeasibleVacancy checks the scan statistics over whole
// runs: each allocation pass's ScanVacancies + ScanSkippedBucket must equal
// the sum, over the pass's cells, of the free vacancies in the rows still
// width-feasible for that cell, with no vacancy visited twice. The
// expected sum is replayed from the pass's outcome — the selection order,
// the vacancy pool, and the vacancy each cell took — independently of the
// scan.
func TestScanCountsEveryFeasibleVacancy(t *testing.T) {
	ckt, err := gen.Benchmark("s1196")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fuzzy.WirePower)
	cfg.Seed = 31
	p, err := NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEngine(0)
	var skipped uint64
	for iter := 0; iter < 8; iter++ {
		before := e.Telemetry()
		e.Step()
		after := e.Telemetry()
		visited := after.ScanVacancies - before.ScanVacancies
		skip := after.ScanSkippedBucket - before.ScanSkippedBucket
		want := replayFeasible(t, e)
		if visited > want || visited+skip != want {
			t.Fatalf("iter %d: %d visited + %d skipped, want %d feasible free vacancies",
				iter, visited, skip, want)
		}
		skipped += skip
	}
	if skipped == 0 {
		t.Fatal("no vacancy was skipped wholesale: the skipped count went untested")
	}
}

// replayFeasible recomputes, from the finished allocation pass, the number
// of free width-feasible vacancies each cell of the pass faced, summed.
func replayFeasible(t *testing.T, e *Engine) uint64 {
	t.Helper()
	ckt := e.prob.Ckt
	sel, vacs := e.selected, e.vacs
	taken := make([]int, len(sel)) // per cell: the vacancy it took
	for k, id := range sel {
		taken[k] = -1
		for v, ref := range e.vacRef[:len(vacs)] {
			if ref == e.place.Slot(id) {
				taken[k] = v
			}
		}
		if taken[k] < 0 {
			t.Fatalf("cell %d sits in no vacancy of the pass", id)
		}
	}
	// Row widths right after the selected cells were lifted out.
	rowW := make([]int, e.place.NumRows())
	for r := range rowW {
		rowW[r] = e.place.RowWidth(r)
	}
	for k, id := range sel {
		rowW[vacs[taken[k]].Row] -= ckt.Cells[id].Width
	}
	limit := (1 + e.prob.Cfg.Alpha) * e.place.AvgRowWidth()
	used := make([]bool, len(vacs))
	total := uint64(0)
	for k, id := range sel {
		w := ckt.Cells[id].Width
		for v, vac := range vacs {
			if !used[v] && float64(rowW[vac.Row]+w) <= limit {
				total++
			}
		}
		used[taken[k]] = true
		rowW[vacs[taken[k]].Row] += w
	}
	return total
}

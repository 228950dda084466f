package wire

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

func testCircuit(t testing.TB, seed int64) *netlist.Circuit {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "inc", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: uint64(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// mutableCoords is a plain coordinate table implementing Coords, so the
// tests can drive arbitrary move sequences and compare against a
// from-scratch evaluation over the same coordinates.
type mutableCoords struct {
	x, y []float64
}

func newMutableCoords(ckt *netlist.Circuit, p *layout.Placement) *mutableCoords {
	m := &mutableCoords{
		x: make([]float64, len(ckt.Cells)),
		y: make([]float64, len(ckt.Cells)),
	}
	for i := range ckt.Cells {
		m.x[i], m.y[i] = p.Coord(netlist.CellID(i))
	}
	return m
}

func (m *mutableCoords) Coord(id netlist.CellID) (float64, float64) { return m.x[id], m.y[id] }

// move sets a cell's coordinates in the table and edits them into inc pin
// by pin.
func (m *mutableCoords) move(inc *Incremental, id netlist.CellID, x, y float64) {
	m.x[id], m.y[id] = x, y
	inc.MoveCell(id, x, y)
}

// TestIncrementalMatchesScratchUnderMoves drives randomized move sequences
// through MoveCell and asserts every committed net length stays bitwise
// equal to a from-scratch evaluation.
func TestIncrementalMatchesScratchUnderMoves(t *testing.T) {
	ckt := testCircuit(t, 31)
	movable := ckt.Movable()
	place := layout.NewRandom(ckt, 8, rng.New(7))
	coords := newMutableCoords(ckt, place)
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)
	ev := NewEvaluator(ckt)
	r := rng.New(99)

	var got, want []float64
	for step := 0; step < 200; step++ {
		// Move 1-3 random cells to random positions (half-site grid with
		// occasional coincident values to exercise duplicate handling).
		for k := 0; k <= r.Intn(3); k++ {
			id := movable[r.Intn(len(movable))]
			coords.move(inc, id, float64(r.Intn(160))/2, float64(r.Intn(48))/2)
		}
		got = inc.Lengths(got)
		want = ev.Lengths(coords, want)
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("step %d: net %d incremental %v != scratch %v",
					step, n, got[n], want[n])
			}
		}
	}
}

// TestTrialMatchesScratch asserts Incremental trials (one and two
// candidates) are bitwise equal to the Evaluator's canonical trial
// functions across random states.
func TestTrialMatchesScratch(t *testing.T) {
	ckt := testCircuit(t, 32)
	movable := ckt.Movable()
	place := layout.NewRandom(ckt, 8, rng.New(11))
	coords := newMutableCoords(ckt, place)
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)
	ev := NewEvaluator(ckt)
	r := rng.New(5)
	var nets []netlist.NetID

	for step := 0; step < 300; step++ {
		a := movable[r.Intn(len(movable))]
		b := movable[r.Intn(len(movable))]
		for b == a {
			b = movable[r.Intn(len(movable))]
		}
		x1, y1 := float64(r.Intn(160))/2, float64(r.Intn(48))/2
		x2, y2 := float64(r.Intn(160))/2, float64(r.Intn(48))/2

		// Single-cell trials over a's nets.
		inc.RemoveCell(a)
		nets = ckt.CellNets(a, nets[:0])
		for _, n := range nets {
			got := inc.TrialNetAt(n, x1, y1)
			want := ev.NetLengthWithCellAt(n, a, x1, y1, coords)
			if got != want {
				t.Fatalf("step %d: net %d 1-cand trial %v != scratch %v",
					step, n, got, want)
			}
		}

		// Two-cell trials over nets containing both a and b.
		inc.RemoveCell(b)
		nets = ckt.CellNets(b, nets[:0])
		for _, n := range nets {
			got := inc.TrialNetAt2(n, x1, y1, x2, y2)
			want := ev.NetLengthWithCellsAt(n, a, x1, y1, b, x2, y2, coords)
			if got != want {
				t.Fatalf("step %d: net %d 2-cand trial %v != scratch %v",
					step, n, got, want)
			}
		}
		inc.RestoreCell(b)
		inc.RestoreCell(a)

		// Occasionally commit a move so trials run against varied states.
		if step%3 == 0 {
			coords.move(inc, a, x1, y1)
		}
	}
}

// TestRemoveRestoreKeepsLengthsValid asserts that a remove/restore pair
// (the trial-scanning pattern) leaves the cached lengths untouched.
func TestRemoveRestoreKeepsLengthsValid(t *testing.T) {
	ckt := testCircuit(t, 33)
	place := layout.NewRandom(ckt, 8, rng.New(3))
	inc := NewIncremental(ckt)
	inc.Rebuild(place)
	before := inc.Lengths(nil)

	movable := ckt.Movable()
	r := rng.New(17)
	for i := 0; i < 50; i++ {
		id := movable[r.Intn(len(movable))]
		inc.RemoveCell(id)
		inc.RestoreCell(id)
	}
	after := inc.Lengths(nil)
	for n := range before {
		if before[n] != after[n] {
			t.Fatalf("net %d length changed across remove/restore: %v -> %v", n, before[n], after[n])
		}
	}
}

// TestRebuildIsChecksum asserts that rebuilding from a consistent state
// reproduces identical lengths: per-pin edits and a rebuild that reach the
// same coordinates agree bit for bit.
func TestRebuildIsChecksum(t *testing.T) {
	ckt := testCircuit(t, 34)
	place := layout.NewRandom(ckt, 8, rng.New(21))
	coords := newMutableCoords(ckt, place)
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)
	movable := ckt.Movable()
	r := rng.New(8)
	for i := 0; i < 120; i++ {
		id := movable[r.Intn(len(movable))]
		coords.move(inc, id, float64(r.Intn(100))/2, float64(r.Intn(30))/2)
	}
	incLengths := inc.Lengths(nil)
	inc.Rebuild(coords)
	rebuilt := inc.Lengths(nil)
	for n := range incLengths {
		if incLengths[n] != rebuilt[n] {
			t.Fatalf("net %d drifted: incremental %v, rebuilt %v",
				n, incLengths[n], rebuilt[n])
		}
	}
}

// TestTrialSetMatchesNetTrials pins the compiled scorer to the scalar
// paths: Score must equal the weighted sum of Incremental.TrialNetAt
// trials bitwise, and
// ScanBest must pick exactly the vacancy a ScoreBounded loop picks.
func TestTrialSetMatchesNetTrials(t *testing.T) {
	ckt := testCircuit(t, 36)
	movable := ckt.Movable()
	place := layout.NewRandom(ckt, 8, rng.New(5))
	inc := NewIncremental(ckt)
	inc.Rebuild(place)
	r := rng.New(77)
	var nets []netlist.NetID
	var set TrialSet

	for step := 0; step < 100; step++ {
		id := movable[r.Intn(len(movable))]
		nets = ckt.CellNets(id, nets[:0])
		weights := make([]float64, len(nets))
		for i := range weights {
			weights[i] = 1 + float64(r.Intn(8))/4
		}
		inc.RemoveCell(id)
		inc.CompileTrials(&set, nets, weights)

		// Build a vacancy pool on row centerlines.
		nVac := 12
		vacs := make([]Vacancy, nVac)
		free := make([]int32, nVac)
		rowOK := make([]bool, place.NumRows())
		for i := range rowOK {
			rowOK[i] = true
		}
		for i := range vacs {
			row := int32(r.Intn(place.NumRows()))
			vacs[i] = Vacancy{X: float64(r.Intn(120)) / 2, Y: layout.RowY(int(row)), Row: row}
			free[i] = int32(i)
		}

		// Score == Σ TrialNetAt · w, bitwise.
		v0 := vacs[0]
		want := 0.0
		for i, n := range nets {
			want += inc.TrialNetAt(n, v0.X, v0.Y) * weights[i]
		}
		if got := set.Score(v0.X, v0.Y); got != want {
			t.Fatalf("Score %v != Σ trials %v", got, want)
		}

		// ScanBest == ScoreBounded loop.
		wantBest, wantBound := -1, 1e308
		for _, f := range free {
			vac := vacs[f]
			if s, ok := set.ScoreBounded(vac.X, vac.Y, wantBound); ok {
				wantBest, wantBound = int(f), s
			}
		}
		gotBest, gotBound := set.ScanBest(vacs, free, rowOK, 0, len(free), 1e308, nil)
		if gotBest != wantBest || gotBound != wantBound {
			t.Fatalf("ScanBest (%d, %v) != ScoreBounded loop (%d, %v)",
				gotBest, gotBound, wantBest, wantBound)
		}
		inc.RestoreCell(id)
	}
}

// TestScanBestTrailingZeroTieBreak pins the first-minimum tie-break when a
// cell's trial records end in a zero record (a net whose pins all belong
// to the trialled cell — orderTrials always sorts its zero span last):
// a later vacancy scoring exactly the current best must NOT steal the win.
func TestScanBestTrailingZeroTieBreak(t *testing.T) {
	set := TrialSet{
		items: []compiledTrial{
			{kind: trialBBox, w: 1, minX: 10, maxX: 20, minY: 1.5, maxY: 1.5},
			{kind: trialZero},
		},
	}
	// Two vacancies with identical coordinates — identical scores.
	vacs := []Vacancy{{X: 0, Y: 1.5, Row: 0}, {X: 0, Y: 1.5, Row: 0}}
	free := []int32{0, 1}
	rowOK := []bool{true}

	best, _ := set.ScanBest(vacs, free, rowOK, 0, len(free), 1e308, nil)
	if best != 0 {
		t.Fatalf("ScanBest picked vacancy %d, want the first of the tie (0)", best)
	}
	// ScoreBounded must report the tie as inadmissible (ok=false) even
	// though the trailing record contributes nothing.
	s0 := set.Score(vacs[0].X, vacs[0].Y)
	if _, ok := set.ScoreBounded(vacs[1].X, vacs[1].Y, s0); ok {
		t.Fatal("ScoreBounded admitted a tied vacancy past a trailing zero record")
	}
}

// TestExcludingMatchesScratch asserts the goodness-path invariant: for
// every requested cell and every incident net, the cached-state excluded
// length is bitwise equal to the Evaluator's from-scratch value. It covers
// the three ways an exclusion gets computed: filled on request (a first
// request, then a wider one that adds cells), by Rebuild's refresh of
// every net, and kept current by per-pin edits (MoveCell) flushed through
// Lengths.
func TestExcludingMatchesScratch(t *testing.T) {
	ckt := testCircuit(t, 5)
	p := layout.NewRandom(ckt, 8, rng.New(5))
	inc := NewIncremental(ckt)
	inc.Rebuild(p)
	ev := NewEvaluator(ckt)
	movable := ckt.Movable()

	check := func(stage string, cells []netlist.CellID, coords Coords) {
		inc.Exclusions(cells)
		for _, id := range cells {
			excl := inc.CellExcl(id)
			for i, ref := range inc.CellPins(id) {
				want := ev.NetLengthExcluding(ref.Net, id, coords)
				if excl[i] != want {
					t.Fatalf("%s: net %d excluding cell %d: cached %v, scratch %v",
						stage, ref.Net, id, excl[i], want)
				}
			}
		}
	}
	check("first request", movable[:len(movable)/2], p)
	check("wider request", movable, p)

	// Move a batch of cells and re-check after a rebuild.
	m := newMutableCoords(ckt, p)
	r := rng.New(99)
	for i := 0; i < 25; i++ {
		id := movable[int(r.Uint64()%uint64(len(movable)))]
		m.x[id], m.y[id] = float64(r.Uint64()%300), float64(r.Uint64()%90)
	}
	inc.Rebuild(m)
	check("after rebuild", movable, m)

	// Per-pin edits, flushed by Lengths.
	for i := 0; i < 10; i++ {
		id := movable[int(r.Uint64()%uint64(len(movable)))]
		m.move(inc, id, float64(r.Uint64()%300), float64(r.Uint64()%90))
	}
	inc.Lengths(nil)
	check("after moves", movable, m)
}

// TestEditedNetsMatchScratch covers nets that per-pin edits changed, whose
// visit recomputes length and exclusions without refilling the sorted
// arrays: MoveCell followed by NetLength on the moved cell's nets (the
// SA/TS move path), mixed with rebuilds that refill, must give the
// Evaluator's lengths and exclusions bit for bit.
func TestEditedNetsMatchScratch(t *testing.T) {
	ckt := testCircuit(t, 8)
	p := layout.NewRandom(ckt, 8, rng.New(8))
	m := newMutableCoords(ckt, p)
	inc := NewIncremental(ckt)
	inc.Rebuild(m)
	ev := NewEvaluator(ckt)
	movable := ckt.Movable()
	wanted := movable[:len(movable)/2]
	inc.Exclusions(wanted)
	r := rng.New(17)
	for step := 0; step < 300; step++ {
		id := movable[r.Intn(len(movable))]
		x, y := float64(r.Intn(160))/2, float64(r.Intn(48))/2
		if step%7 == 0 {
			m.x[id], m.y[id] = x, y
			inc.Rebuild(m)
		} else {
			m.move(inc, id, x, y)
		}
		for _, ref := range inc.CellPins(id) {
			if got, want := inc.NetLength(ref.Net), ev.NetLength(ref.Net, m); got != want {
				t.Fatalf("step %d: net %d length %v, scratch %v", step, ref.Net, got, want)
			}
		}
		if step%10 != 9 {
			continue
		}
		inc.Exclusions(wanted)
		for _, c := range wanted {
			excl := inc.CellExcl(c)
			for i, ref := range inc.CellPins(c) {
				if want := ev.NetLengthExcluding(ref.Net, c, m); excl[i] != want {
					t.Fatalf("step %d: net %d excluding cell %d: %v, scratch %v",
						step, ref.Net, c, excl[i], want)
				}
			}
		}
		got := inc.Lengths(nil)
		for n, want := range ev.Lengths(m, nil) {
			if got[n] != want {
				t.Fatalf("step %d: net %d committed %v, scratch %v", step, n, got[n], want)
			}
		}
	}
}

// TestExcludingPadNets covers nets whose remaining pins include pads and
// nets that degenerate below two pins when the cell is removed.
func TestExcludingPadNets(t *testing.T) {
	ckt := testCircuit(t, 6)
	p := layout.NewRandom(ckt, 8, rng.New(6))
	inc := NewIncremental(ckt)
	inc.Rebuild(p)
	ev := NewEvaluator(ckt)
	all := make([]netlist.CellID, len(ckt.Cells))
	for i := range all {
		all[i] = netlist.CellID(i)
	}
	inc.Exclusions(all)
	seen2 := false
	for _, id := range all {
		excl := inc.CellExcl(id)
		for i, ref := range inc.CellPins(id) {
			if ckt.Net(ref.Net).Degree() == 2 {
				seen2 = true
			}
			want := ev.NetLengthExcluding(ref.Net, id, p)
			if excl[i] != want {
				t.Fatalf("net %d excluding cell %d: cached %v, scratch %v", ref.Net, id, excl[i], want)
			}
		}
	}
	if !seen2 {
		t.Log("no 2-pin nets in the generated circuit; degenerate path untested here")
	}
}

// TestSteadyStateZeroAllocs pins the SoA storage contract: once the flat
// backing arrays exist and the scratch buffers are warm, a full
// edit/relength/rebuild/goodness/trial cycle allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	ckt := testCircuit(t, 77)
	place := layout.NewRandom(ckt, 0, rng.NewStream(9, 0))
	coords := newMutableCoords(ckt, place)
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)

	movable := ckt.Movable()
	var lengths []float64
	var trials TrialSet
	var nets []netlist.NetID
	var weights []float64
	rowY := rowCenters(layout.RowY, 8)

	cycle := func(round int) {
		// A batch of per-pin moves and their relength, then the rebuild
		// every engine evaluation runs.
		for i := 0; i < 8; i++ {
			id := movable[(round*13+i*7)%len(movable)]
			coords.move(inc, id, float64((round+i*11)%40)+0.5, float64((round*3+i)%8)*layout.RowPitch+2)
		}
		lengths = inc.Lengths(lengths)
		inc.Rebuild(coords)

		// Goodness exclusions for a fixed request plus a compiled trial
		// scan.
		inc.Exclusions(movable)
		id := movable[round%len(movable)]
		nets = nets[:0]
		weights = weights[:0]
		for _, ref := range inc.CellPins(id) {
			nets = append(nets, ref.Net)
			weights = append(weights, 1)
		}
		inc.RemoveCell(id)
		inc.CompileTrials(&trials, nets, weights)
		trials.PrepareScan(rowY)
		_ = trials.Score(3.5, layout.RowY(2))
		inc.RestoreCell(id)
	}

	// Warm every growable scratch buffer, then demand zero allocations.
	for r := 0; r < 4; r++ {
		cycle(r)
	}
	round := 4
	avg := testing.AllocsPerRun(20, func() {
		cycle(round)
		round++
	})
	if avg != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times per run, want 0", avg)
	}
}

// dupPinCircuit builds a few wide nets whose sink cells often sink the same
// net more than once (pin multiplicity K > 1): each of nPads pads drives
// its own net, and every gate takes two or three inputs drawn from the
// pads with repetition.
func dupPinCircuit(t *testing.T, r *rng.R, nPads, nGates int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("dup")
	pads := make([]string, nPads)
	for i := range pads {
		pads[i] = fmt.Sprintf("p%d", i)
		b.AddInput(pads[i])
	}
	for g := 0; g < nGates; g++ {
		ins := make([]string, 2+r.Intn(2))
		for j := range ins {
			ins[j] = pads[r.Intn(nPads)]
		}
		name := fmt.Sprintf("g%d", g)
		b.AddGate(name, netlist.And, ins, 0)
		b.AddOutput(name)
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// TestMultisetDuplicatesMatchRebuild pins the value-only multisets: random
// RemoveCell / PlaceCell / RestoreCell / MoveCell sequences on nets full
// of equal x or y values, with cells of pin multiplicity K > 1, must keep
// every net's sorted values and prefix sums bitwise equal to the pins
// still stored, collected, sorted and summed from scratch — and, whenever
// no cell is lifted out, to a fresh Rebuild. Removal takes an entry by
// value, and the prefix sums are refreshed only from the first changed
// index.
func TestMultisetDuplicatesMatchRebuild(t *testing.T) {
	r := rng.New(0xd0b1e)
	ckt := dupPinCircuit(t, r, 5, 40)
	sawK := false
	probe := NewIncremental(ckt)
	for id := range ckt.Cells {
		for _, ref := range probe.CellPins(netlist.CellID(id)) {
			sawK = sawK || ref.K > 1
		}
	}
	if !sawK {
		t.Fatal("fixture has no cell with pin multiplicity K > 1")
	}
	// Few distinct coordinates per axis, so most stored values tie, and
	// non-dyadic ones, so the prefix sums round.
	coordX := func() float64 { return 1000.1 + 0.3*float64(r.Intn(4)) }
	coordY := func() float64 { return 1.1 * layout.RowY(r.Intn(3)) }
	coords := &mutableCoords{x: make([]float64, len(ckt.Cells)), y: make([]float64, len(ckt.Cells))}
	for i := range ckt.Cells {
		coords.x[i], coords.y[i] = coordX(), coordY()
	}
	inc := NewIncremental(ckt)
	inc.Rebuild(coords)
	removed := make(map[netlist.CellID]bool)
	for step := 0; step < 1500; step++ {
		id := netlist.CellID(r.Intn(len(ckt.Cells)))
		x, y := coordX(), coordY()
		if r.Intn(2) == 0 {
			x = coords.x[id] // same x, new y: the x multiset sees remove+insert of one value
		}
		switch {
		case removed[id] && r.Intn(3) == 0:
			inc.RestoreCell(id)
			delete(removed, id)
		case removed[id]:
			inc.PlaceCell(id, x, y)
			coords.x[id], coords.y[id] = x, y
			delete(removed, id)
		case r.Intn(2) == 0:
			inc.RemoveCell(id)
			removed[id] = true
		default:
			inc.MoveCell(id, x, y)
			coords.x[id], coords.y[id] = x, y
		}
		requireGeomsMatch(t, fmt.Sprintf("step %d", step), inc, ckt, coords, removed)
		if len(removed) == 0 {
			fresh := NewIncremental(ckt)
			fresh.Rebuild(coords)
			requireGeomsEqual(t, fmt.Sprintf("step %d rebuild", step), inc, fresh)
		}
	}
}

// requireGeomsMatch checks every net's multisets against its stored pins
// (those of cells not in removed) collected from coords, sorted, and
// prefix-summed from scratch.
func requireGeomsMatch(t *testing.T, tag string, inc *Incremental, ckt *netlist.Circuit,
	coords *mutableCoords, removed map[netlist.CellID]bool) {
	t.Helper()
	for n := range inc.geoms {
		net := ckt.Net(netlist.NetID(n))
		var want netGeom
		add := func(id netlist.CellID) {
			if id != netlist.NoCell && !removed[id] {
				want.xv = append(want.xv, coords.x[id])
				want.yv = append(want.yv, coords.y[id])
			}
		}
		add(net.Driver)
		for _, s := range net.Sinks {
			add(s)
		}
		slices.Sort(want.xv)
		slices.Sort(want.yv)
		want.xp = prefixInto(nil, want.xv)
		want.yp = prefixInto(nil, want.yv)
		requireNetGeom(t, tag, n, &inc.geoms[n], &want)
	}
}

// requireGeomsEqual checks two incremental states' multisets bitwise.
func requireGeomsEqual(t *testing.T, tag string, got, want *Incremental) {
	t.Helper()
	for n := range got.geoms {
		requireNetGeom(t, tag, n, &got.geoms[n], &want.geoms[n])
	}
}

func requireNetGeom(t *testing.T, tag string, n int, got, want *netGeom) {
	t.Helper()
	for _, a := range []struct {
		name      string
		got, want []float64
	}{{"xv", got.xv, want.xv}, {"yv", got.yv, want.yv}, {"xp", got.xp, want.xp}, {"yp", got.yp, want.yp}} {
		if len(a.got) != len(a.want) {
			t.Fatalf("%s: net %d %s has %d entries, want %d", tag, n, a.name, len(a.got), len(a.want))
		}
		for i := range a.got {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				t.Fatalf("%s: net %d %s[%d] = %v, want %v", tag, n, a.name, i, a.got[i], a.want[i])
			}
		}
	}
}

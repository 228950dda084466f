package congest

import (
	"math"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

func testCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "cg", Gates: 180, DFFs: 12, PIs: 8, POs: 8, Depth: 9, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// memSource is a mutable coordinate store for randomized grid tests.
type memSource struct {
	ckt  *netlist.Circuit
	x, y []float64
}

func newMemSource(ckt *netlist.Circuit, p *layout.Placement) *memSource {
	s := &memSource{ckt: ckt, x: make([]float64, len(ckt.Cells)), y: make([]float64, len(ckt.Cells))}
	for i := range ckt.Cells {
		s.x[i], s.y[i] = p.Coord(netlist.CellID(i))
	}
	return s
}

func (s *memSource) Coord(id netlist.CellID) (x, y float64) { return s.x[id], s.y[id] }

func (s *memSource) NetBBox(n netlist.NetID) (minX, minY, maxX, maxY float64, ok bool) {
	net := s.ckt.Net(n)
	if net.Degree() == 0 {
		return 0, 0, 0, 0, false
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	visit := func(id netlist.CellID) {
		minX, maxX = math.Min(minX, s.x[id]), math.Max(maxX, s.x[id])
		minY, maxY = math.Min(minY, s.y[id]), math.Max(maxY, s.y[id])
	}
	visit(net.Driver)
	for _, sk := range net.Sinks {
		visit(sk)
	}
	return minX, minY, maxX, maxY, true
}

func gridsEqual(t *testing.T, a, b *Grid, ctx string) {
	t.Helper()
	if len(a.demand) != len(b.demand) {
		t.Fatalf("%s: grid sizes differ", ctx)
	}
	for i := range a.demand {
		if a.demand[i] != b.demand[i] {
			t.Fatalf("%s: bin %d differs: %d vs %d", ctx, i, a.demand[i], b.demand[i])
		}
	}
	if a.Value() != b.Value() || a.total != b.total || a.peak != b.peak || a.overflowNum != b.overflowNum {
		t.Fatalf("%s: aggregates differ: val %v/%v total %d/%d peak %d/%d over %d/%d",
			ctx, a.Value(), b.Value(), a.total, b.total, a.peak, b.peak, a.overflowNum, b.overflowNum)
	}
}

// TestFullIsStateless pins what the engine relies on when it reuses one
// grid across evaluations: after random batches of cell moves, a Full on
// the warm grid lands bitwise — bins, per-net boxes, and the overflow
// aggregates — on a fresh grid's Full over the same coordinates.
func TestFullIsStateless(t *testing.T) {
	ckt := testCircuit(t)
	r := rng.New(99)
	place := layout.NewRandom(ckt, 12, r)
	src := newMemSource(ckt, place)
	spec := SpecFor(ckt, 12, 0)
	lengths := make([]float64, ckt.NumNets())

	warm := New(ckt, spec, src)
	warm.Full(lengths)

	movable := ckt.Movable()
	for round := 0; round < 20; round++ {
		for j := 0; j < 1+r.Intn(len(movable)/2); j++ {
			id := movable[r.Intn(len(movable))]
			src.x[id] = r.Float64() * spec.Width
			src.y[id] = r.Float64() * spec.Height
		}
		warm.Full(lengths)
		ref := New(ckt, spec, src)
		ref.Full(lengths)
		gridsEqual(t, warm, ref, "after random moves")
		for n := range warm.rects {
			if warm.rects[n] != ref.rects[n] {
				t.Fatalf("round %d: net %d box %+v != fresh %+v", round, n, warm.rects[n], ref.rects[n])
			}
		}
	}
	if up, rb := warm.Stats(); up == 0 || rb != 21 {
		t.Fatalf("stats did not track the rebuilds: %d bin updates, %d rebuilds", up, rb)
	}
}

// TestSourceEquivalence pins that the two geometry sources — the
// placement visitor and wire.Incremental's sorted multisets — produce
// bitwise-identical grids for the same coordinates. This is the
// cross-mode invariant the engine trajectory equivalence rests on.
func TestSourceEquivalence(t *testing.T) {
	ckt := testCircuit(t)
	place := layout.NewRandom(ckt, 12, rng.New(3))
	spec := SpecFor(ckt, 12, 0)
	lengths := make([]float64, ckt.NumNets())

	inc := wire.NewIncremental(ckt, wire.Steiner)
	inc.Rebuild(place)

	a := New(ckt, spec, PlacementSource{P: place})
	a.Full(lengths)
	b := New(ckt, spec, inc)
	b.Full(lengths)
	gridsEqual(t, a, b, "placement vs incremental source")
}

// TestBinBoundaryConvention pins the package's half-open floor
// convention: a coordinate exactly on a bin boundary belongs to the
// higher-indexed bin, and out-of-die overhang clamps to the edge bins.
func TestBinBoundaryConvention(t *testing.T) {
	g := New(testCircuit(t), Spec{NX: 8, NY: 4, Width: 64, Height: 16}, nil)
	if got := g.BinX(16.0); got != 2 { // 16 = 2·binW exactly
		t.Errorf("BinX(16) = %d, want 2 (boundary belongs to the higher bin)", got)
	}
	if got := g.BinX(15.9999); got != 1 {
		t.Errorf("BinX(15.9999) = %d, want 1", got)
	}
	if got := g.BinX(-4.0); got != 0 { // pad overhang clamps from below
		t.Errorf("BinX(-4) = %d, want 0", got)
	}
	if got := g.BinX(64.0); got != 7 { // right edge clamps into the last bin
		t.Errorf("BinX(64) = %d, want 7", got)
	}
	if got := g.BinY(4.0); got != 1 {
		t.Errorf("BinY(4) = %d, want 1", got)
	}
}

// TestContributionConservation checks the integer remainder dealing: the
// bins covered by one net sum to exactly the net's quantized
// half-perimeter, so total demand equals total HPWL up to quantization.
func TestContributionConservation(t *testing.T) {
	ckt := testCircuit(t)
	place := layout.NewRandom(ckt, 12, rng.New(8))
	spec := SpecFor(ckt, 12, 0)
	g := New(ckt, spec, PlacementSource{P: place})
	g.Full(make([]float64, ckt.NumNets()))

	var sumBins, sumContrib int64
	for _, d := range g.demand {
		sumBins += d
	}
	src := PlacementSource{P: place}
	for n := 0; n < ckt.NumNets(); n++ {
		if minX, minY, maxX, maxY, ok := src.NetBBox(netlist.NetID(n)); ok {
			sumContrib += int64(math.Round(((maxX - minX) + (maxY - minY)) * float64(Scale)))
		}
	}
	if sumBins != sumContrib {
		t.Fatalf("bins sum %d != contributions sum %d", sumBins, sumContrib)
	}
}

// refSpread is the per-bin spread the summed-area one replaced, kept as its
// oracle: base share q/bins in every bin of r, one extra unit in each of
// the first q%bins bins in row-major order.
func refSpread(demand []int64, nx int, r rect, q int64) {
	bins := int64(r.x1-r.x0+1) * int64(r.y1-r.y0+1)
	base, remn := q/bins, q%bins
	i := int64(0)
	for y := int(r.y0); y <= int(r.y1); y++ {
		for x := int(r.x0); x <= int(r.x1); x++ {
			d := base
			if i < remn {
				d++
			}
			demand[y*nx+x] += d
			i++
		}
	}
}

// TestSpreadMatchesReference checks the summed-area spread bin for bin
// against refSpread: batches of random rectangles, among them single bins,
// the whole grid, and remainders that fill several rows plus part of the
// next, superposed on one grid and integrated once, as Full does. The
// covered-bin counter must match too.
func TestSpreadMatchesReference(t *testing.T) {
	r := rng.New(0x5a7)
	for trial := 0; trial < 300; trial++ {
		nx, ny := 1+r.Intn(12), 1+r.Intn(12)
		g := &Grid{
			spec:   Spec{NX: nx, NY: ny},
			demand: make([]int64, nx*ny),
			diff:   make([]int64, (nx+1)*(ny+1)),
		}
		want := make([]int64, nx*ny)
		wantBins := uint64(0)
		for k := 0; k < 1+r.Intn(20); k++ {
			var rc rect
			switch k % 4 {
			case 0: // a single bin
				x, y := int32(r.Intn(nx)), int32(r.Intn(ny))
				rc = rect{x, y, x, y}
			case 1: // the whole grid
				rc = rect{0, 0, int32(nx - 1), int32(ny - 1)}
			default:
				x0, y0 := r.Intn(nx), r.Intn(ny)
				rc = rect{int32(x0), int32(y0), int32(x0 + r.Intn(nx-x0)), int32(y0 + r.Intn(ny-y0))}
			}
			w, h := int64(rc.x1-rc.x0+1), int64(rc.y1-rc.y0+1)
			bins := w * h
			var remn int64
			switch r.Intn(4) {
			case 0: // several full rows plus part of the next, where they fit
				full := min(2+int64(r.Intn(3)), h-1)
				remn = full*w + int64(r.Intn(int(w)))
				if remn >= bins {
					remn = bins - 1
				}
			case 1: // an exact multiple: no remainder
			default:
				remn = int64(r.Intn(int(bins)))
			}
			q := int64(r.Intn(4))*bins + remn
			if q == 0 {
				q = 1
			}
			g.spread(rc, q)
			refSpread(want, nx, rc, q)
			wantBins += uint64(bins)
		}
		g.integrate()
		for i := range want {
			if g.demand[i] != want[i] {
				t.Fatalf("trial %d (%dx%d): bin %d = %d, want %d", trial, nx, ny, i, g.demand[i], want[i])
			}
		}
		if g.nBinUpdates != wantBins {
			t.Fatalf("trial %d: %d bin updates counted, want %d", trial, g.nBinUpdates, wantBins)
		}
	}
}

// TestSpecBoundsBins: a die far taller than wide — a few cells on many
// rows — gets at most MaxBins bins, while an ordinary die keeps square
// bins.
func TestSpecBoundsBins(t *testing.T) {
	tall := SpecSized(2e-4, 10000*layout.RowPitch, 0)
	if tall.NX*tall.NY > MaxBins || tall.NY < 1 {
		t.Errorf("tall die: %d×%d bins, want at most %d", tall.NX, tall.NY, MaxBins)
	}
	if s := SpecSized(100, 100, 64); s.NX != 64 || s.NY != 64 {
		t.Errorf("square die: %d×%d bins, want 64×64", s.NX, s.NY)
	}
	if s := SpecSized(1, 1, 2*MaxBins); s.NY != 1 {
		t.Errorf("more columns than MaxBins: %d rows of bins, want 1", s.NY)
	}
}

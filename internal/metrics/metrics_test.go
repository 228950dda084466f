package metrics

import (
	"math"
	"strings"
	"testing"

	"simevo/internal/congest"
	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
	"simevo/internal/wire"
)

func testPlacement(t testing.TB) *layout.Placement {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "met", Gates: 120, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return layout.NewRandom(ckt, 10, rng.New(3))
}

func TestCongestionBasics(t *testing.T) {
	p := testPlacement(t)
	c := EstimateCongestion(p, 8)
	if c.NX != 8 || c.NY < 1 {
		t.Fatalf("grid %dx%d malformed", c.NX, c.NY)
	}
	if len(c.Demand) != c.NX*c.NY {
		t.Fatalf("demand array %d != %d bins", len(c.Demand), c.NX*c.NY)
	}
	total := 0.0
	for _, d := range c.Demand {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("negative/NaN bin demand %v", d)
		}
		total += d
	}
	if total <= 0 {
		t.Fatal("no routing demand accumulated")
	}
	if c.Peak < c.Avg {
		t.Fatalf("peak %v below average %v", c.Peak, c.Avg)
	}
	if !strings.Contains(c.String(), "congestion") {
		t.Fatal("String() malformed")
	}
}

func TestCongestionDemandEqualsHPWL(t *testing.T) {
	// Total demand must equal total HPWL regardless of bin count (each
	// net spreads exactly its half-perimeter over its box). The grid
	// stores demand in 2^-20 fixed point, so each net's half-perimeter
	// carries up to 2^-21 rounding error — the tolerance admits that
	// quantization but nothing larger.
	p := testPlacement(t)
	want := wire.Total(wire.LengthsBy(p.Circuit(), wire.HPWL, p, nil))
	slack := float64(len(p.Circuit().Nets)) / float64(uint64(1)<<21)
	for _, nx := range []int{4, 16, 32} {
		c := EstimateCongestion(p, nx)
		got := 0.0
		for _, d := range c.Demand {
			got += d
		}
		if math.Abs(got-want) > slack+want*1e-9 {
			t.Fatalf("nx=%d: demand %v, want %v", nx, got, want)
		}
	}
}

func TestCongestionBinBoundaryConvention(t *testing.T) {
	// The diagnostic must share the objective grid's binning: half-open
	// bins with floor indexing, so a coordinate exactly on a boundary
	// lands in the higher-indexed bin. Pinned here so a future refactor
	// cannot silently reintroduce truncation-toward-zero.
	spec := congest.SpecSized(64, 16, 8)
	g := congest.New(testPlacement(t).Circuit(), spec, congest.PlacementSource{P: testPlacement(t)})
	if got := g.BinX(16); got != 2 {
		t.Fatalf("BinX(16) = %d, want 2 (boundary belongs to the higher bin)", got)
	}
	if got := g.BinX(15.9999); got != 1 {
		t.Fatalf("BinX(15.9999) = %d, want 1", got)
	}
	if got := g.BinX(-4); got != 0 {
		t.Fatalf("BinX(-4) = %d, want 0 (pad overhang clamps to the edge)", got)
	}
}

func TestCongestionDefaultGrid(t *testing.T) {
	p := testPlacement(t)
	c := EstimateCongestion(p, 0)
	if c.NX != 16 {
		t.Fatalf("default NX = %d, want 16", c.NX)
	}
}

func TestOptimizationReducesCongestionPeak(t *testing.T) {
	// SimE shortens nets, which concentrates boxes but reduces the number
	// of bins each net crosses; the *overflow* measure should not explode.
	ckt, err := gen.Generate(gen.Params{
		Name: "met2", Gates: 150, DFFs: 8, PIs: 6, POs: 6, Depth: 8, Seed: 56,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(fuzzy.WirePower)
	cfg.MaxIters = 60
	cfg.Seed = 9
	prob, err := core.NewProblem(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := prob.NewEngine(0)
	before := EstimateCongestion(eng.Placement(), 8)
	res := eng.Run()
	after := EstimateCongestion(res.Best, 8)
	// Average demand must drop with total wirelength.
	if after.Avg >= before.Avg {
		t.Fatalf("average congestion did not drop: %v -> %v", before.Avg, after.Avg)
	}
}

func TestRowStats(t *testing.T) {
	p := testPlacement(t)
	st := ComputeRowStats(p)
	if st.Rows != 10 {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.MinWidth > st.MaxWidth || st.MinCells > st.MaxCells {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	if st.AvgWidth <= 0 {
		t.Fatal("zero average width")
	}
	// Random init balances by width.
	if st.Imbalance > 0.5 {
		t.Fatalf("random init imbalance %v too high", st.Imbalance)
	}
	if !strings.Contains(st.String(), "rows: 10") {
		t.Fatalf("String() malformed: %s", st)
	}
}

func TestWirelengthByEstimator(t *testing.T) {
	p := testPlacement(t)
	wl := WirelengthByEstimator(p)
	for _, name := range []string{"hpwl", "steiner", "rmst"} {
		if wl[name] <= 0 {
			t.Fatalf("%s total = %v", name, wl[name])
		}
	}
	// HPWL lower-bounds both tree estimates.
	if wl["steiner"] < wl["hpwl"] || wl["rmst"] < wl["hpwl"] {
		t.Fatalf("estimator ordering violated: %+v", wl)
	}
}

var _ = netlist.NoCell

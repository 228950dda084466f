package wire

import (
	"math"
	"testing"
	"testing/quick"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// gridCoords is a test Coords implementation with explicit positions.
type gridCoords map[netlist.CellID][2]float64

func (g gridCoords) Coord(id netlist.CellID) (float64, float64) {
	p := g[id]
	return p[0], p[1]
}

// starCircuit builds one driver gate "d" with n buffer sinks, so the test
// controls the pin count of net "d" directly.
func starCircuit(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("star")
	b.AddInput("a")
	b.AddGate("d", netlist.Buf, []string{"a"}, 0)
	for i := 0; i < n; i++ {
		b.AddGate(sinkName(i), netlist.Buf, []string{"d"}, 0)
		b.AddOutput(sinkName(i))
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ckt
}

func sinkName(i int) string { return "s" + string(rune('0'+i)) }

func netByName(t *testing.T, ckt *netlist.Circuit, name string) netlist.NetID {
	t.Helper()
	for i := range ckt.Nets {
		if ckt.Nets[i].Name == name {
			return netlist.NetID(i)
		}
	}
	t.Fatalf("net %q not found", name)
	return netlist.NoNet
}

func TestTwoPinNet(t *testing.T) {
	ckt := starCircuit(t, 1)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	for i := range ckt.Cells {
		coords[netlist.CellID(i)] = [2]float64{0, 0}
	}
	driver := ckt.Nets[net].Driver
	sink := ckt.Nets[net].Sinks[0]
	coords[driver] = [2]float64{0, 0}
	coords[sink] = [2]float64{3, 4}

	for _, est := range []Estimator{HPWL, Steiner} {
		if got := LengthsBy(ckt, est, coords, nil)[net]; got != 7 {
			t.Fatalf("est %d: 2-pin length = %v, want 7", est, got)
		}
	}
}

func TestSteinerEqualsHPWLUpTo3Pins(t *testing.T) {
	ckt := starCircuit(t, 2) // 3 pins total
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	pts := [][2]float64{{0, 0}, {5, 1}, {2, 7}}
	i := 0
	coords[ckt.Nets[net].Driver] = pts[i]
	for _, s := range ckt.Nets[net].Sinks {
		i++
		coords[s] = pts[i]
	}
	h := LengthsBy(ckt, HPWL, coords, nil)[net]
	s := NewEvaluator(ckt).NetLength(net, coords)
	if h != s {
		t.Fatalf("3-pin Steiner %v != HPWL %v", s, h)
	}
}

func TestSteinerKnown4Pin(t *testing.T) {
	// Pins at the corners of a 10x10 square: HPWL = 20. The single-trunk
	// tree needs trunk 10 plus two branches of 5 on each side = 20... pins:
	// (0,0),(10,0),(0,10),(10,10): horizontal trunk at median y=5: span 10
	// + branches 5+5+5+5 = 30. Vertical trunk same. HPWL = 20.
	ckt := starCircuit(t, 3)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	pts := [][2]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	coords[ckt.Nets[net].Driver] = pts[0]
	for i, s := range ckt.Nets[net].Sinks {
		coords[s] = pts[i+1]
	}
	h := LengthsBy(ckt, HPWL, coords, nil)[net]
	s := NewEvaluator(ckt).NetLength(net, coords)
	if h != 20 {
		t.Fatalf("HPWL = %v, want 20", h)
	}
	if s != 30 {
		t.Fatalf("Steiner = %v, want 30", s)
	}
}

func TestSteinerAtLeastHPWL(t *testing.T) {
	// Property: Steiner estimate >= HPWL on random placements of a real
	// circuit (HPWL is a lower bound on any rectilinear Steiner tree).
	ckt, err := gen.Generate(gen.Params{
		Name: "w", Gates: 80, DFFs: 6, PIs: 5, POs: 5, Depth: 7, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		p := layout.NewRandom(ckt, 10, rng.New(seed))
		hs := LengthsBy(ckt, HPWL, p, nil)
		se := NewEvaluator(ckt)
		for i, h := range hs {
			s := se.NetLength(netlist.NetID(i), p)
			if s < h-1e-9 {
				return false
			}
			// Single-trunk is at most 2x HPWL... actually bounded by
			// trunk + n branches each <= half perimeter; use a loose
			// sanity bound relative to pin count.
			deg := float64(ckt.Nets[i].Degree())
			if s > h*deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNetLengthExcluding(t *testing.T) {
	ckt := starCircuit(t, 2)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	coords[ckt.Nets[net].Driver] = [2]float64{100, 100} // far outlier
	coords[ckt.Nets[net].Sinks[0]] = [2]float64{0, 0}
	coords[ckt.Nets[net].Sinks[1]] = [2]float64{1, 1}
	e := NewEvaluator(ckt)
	full := e.NetLength(net, coords)
	excl := e.NetLengthExcluding(net, ckt.Nets[net].Driver, coords)
	if excl != 2 {
		t.Fatalf("excluding outlier: %v, want 2", excl)
	}
	if full <= excl {
		t.Fatalf("full %v should exceed excluded %v", full, excl)
	}
}

func TestNetLengthExcludingDegenerate(t *testing.T) {
	ckt := starCircuit(t, 1) // 2 pins
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	coords[ckt.Nets[net].Driver] = [2]float64{0, 0}
	coords[ckt.Nets[net].Sinks[0]] = [2]float64{5, 5}
	e := NewEvaluator(ckt)
	if got := e.NetLengthExcluding(net, ckt.Nets[net].Driver, coords); got != 0 {
		t.Fatalf("1 remaining pin length = %v, want 0", got)
	}
}

func TestNetLengthWithCellAt(t *testing.T) {
	ckt := starCircuit(t, 1)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	driver, sink := ckt.Nets[net].Driver, ckt.Nets[net].Sinks[0]
	coords[driver] = [2]float64{0, 0}
	coords[sink] = [2]float64{10, 0}
	e := NewEvaluator(ckt)
	// Moving the driver next to the sink should shrink the net.
	got := e.NetLengthWithCellAt(net, driver, 9, 0, coords)
	if got != 1 {
		t.Fatalf("trial length = %v, want 1", got)
	}
	// The real placement is unchanged.
	if l := e.NetLength(net, coords); l != 10 {
		t.Fatalf("original length changed: %v", l)
	}
}

func TestLengthsAndTotal(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "w2", Gates: 60, DFFs: 4, PIs: 4, POs: 4, Depth: 6, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 8, rng.New(1))
	e := NewEvaluator(ckt)
	lengths := e.Lengths(p, nil)
	if len(lengths) != ckt.NumNets() {
		t.Fatalf("Lengths returned %d entries, want %d", len(lengths), ckt.NumNets())
	}
	sum := 0.0
	for i, l := range lengths {
		if l < 0 {
			t.Fatalf("net %d has negative length %v", i, l)
		}
		sum += l
	}
	if got := Total(lengths); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("Total = %v, want %v", got, sum)
	}
	if sum == 0 {
		t.Fatal("total wirelength of a random placement is zero")
	}

	// Reuse: second call must not reallocate.
	l2 := e.Lengths(p, lengths)
	if &l2[0] != &lengths[0] {
		t.Fatal("Lengths reallocated despite sufficient capacity")
	}
}

func TestMovingCellTowardPinsReducesLength(t *testing.T) {
	// Sanity: moving a cell to the median of its net's other pins can not
	// increase that net's Steiner estimate.
	ckt, err := gen.Generate(gen.Params{
		Name: "w3", Gates: 60, DFFs: 4, PIs: 4, POs: 4, Depth: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := layout.NewRandom(ckt, 8, rng.New(2))
	e := NewEvaluator(ckt)
	for i := 0; i < ckt.NumNets(); i++ {
		net := &ckt.Nets[i]
		if net.Driver == netlist.NoCell || ckt.Cells[net.Driver].IsPad() {
			continue
		}
		if net.Degree() < 3 {
			continue
		}
		full := e.NetLength(netlist.NetID(i), p)
		base := e.NetLengthExcluding(netlist.NetID(i), net.Driver, p)
		if base > full+1e-9 {
			t.Fatalf("net %d: excluding a pin increased length %v -> %v", i, full, base)
		}
	}
}

// TestExclusionPositionsMatchSearch pins the position shortcuts of the
// excluding formulas on random sorted arrays with heavy duplication:
// exclSpan's end tests against the lower-bound search they replace, and
// lowerFrom against searchF64 from every median hint exclMedian returns.
func TestExclusionPositionsMatchSearch(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 20000; trial++ {
		n := 2 + r.Intn(12)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(6))
		}
		sortFloats(v)
		rv := v[r.Intn(n)]
		lo := searchF64(v, rv)
		run := 0
		for j := lo; j < n && v[j] == rv; j++ {
			run++
		}
		k := 1 + r.Intn(run)
		if n-k < 1 {
			continue
		}
		min, max := exclSpan(v, rv, k)
		wantMin, wantMax := v[0], v[n-1]
		if lo == 0 {
			wantMin = v[k]
		}
		if lo+k == n {
			wantMax = v[n-k-1]
		}
		if min != wantMin || max != wantMax {
			t.Fatalf("exclSpan(%v, %v, %d) = %v, %v; want %v, %v", v, rv, k, min, max, wantMin, wantMax)
		}
		med, hi := exclMedian(v, lo, k)
		if got, want := lowerFrom(v, hi, med), searchF64(v, med); got != want {
			t.Fatalf("lowerFrom(%v, %d, %v) = %d, searchF64 %d", v, hi, med, got, want)
		}
	}
}

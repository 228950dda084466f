package wire

import (
	"testing"
	"testing/quick"

	"simevo/internal/gen"
	"simevo/internal/layout"
	"simevo/internal/rng"
)

func TestRMSTTwoPin(t *testing.T) {
	ckt := starCircuit(t, 1)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	coords[ckt.Nets[net].Driver] = [2]float64{0, 0}
	coords[ckt.Nets[net].Sinks[0]] = [2]float64{3, 4}
	if got := LengthsBy(ckt, RMST, coords, nil)[net]; got != 7 {
		t.Fatalf("2-pin RMST = %v, want 7", got)
	}
}

func TestRMSTKnownSquare(t *testing.T) {
	// Corners of a 10x10 square: the RMST uses three edges of length 10.
	ckt := starCircuit(t, 3)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	pts := [][2]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	coords[ckt.Nets[net].Driver] = pts[0]
	for i, s := range ckt.Nets[net].Sinks {
		coords[s] = pts[i+1]
	}
	if got := LengthsBy(ckt, RMST, coords, nil)[net]; got != 30 {
		t.Fatalf("square RMST = %v, want 30", got)
	}
}

func TestRMSTCollinear(t *testing.T) {
	// Collinear pins: RMST equals the span (and the HPWL).
	ckt := starCircuit(t, 3)
	net := netByName(t, ckt, "d")
	coords := gridCoords{}
	pts := [][2]float64{{0, 0}, {4, 0}, {9, 0}, {15, 0}}
	coords[ckt.Nets[net].Driver] = pts[0]
	for i, s := range ckt.Nets[net].Sinks {
		coords[s] = pts[i+1]
	}
	if got := LengthsBy(ckt, RMST, coords, nil)[net]; got != 15 {
		t.Fatalf("collinear RMST = %v, want 15", got)
	}
}

func TestRMSTBounds(t *testing.T) {
	// Property: HPWL <= RMST everywhere; RMST is a spanning construction,
	// so it is also a legal routed length (finite, non-negative).
	ckt, err := gen.Generate(gen.Params{
		Name: "rmst", Gates: 90, DFFs: 6, PIs: 5, POs: 5, Depth: 7, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		p := layout.NewRandom(ckt, 10, rng.New(seed))
		hs := LengthsBy(ckt, HPWL, p, nil)
		rs := LengthsBy(ckt, RMST, p, nil)
		for i, h := range hs {
			r := rs[i]
			if r < h-1e-9 || r < 0 {
				return false
			}
			// MST over k pins has k-1 edges, each at most HPWL long.
			if k := ckt.Nets[i].Degree(); r > h*float64(k-1)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

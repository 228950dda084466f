package gen

import (
	"fmt"
	"math"
	"sort"

	"simevo/internal/netlist"
)

// The catalog reproduces the five ISCAS-89 test cases of the paper's
// evaluation (Tables 1-4). Movable cell counts match the paper's "Cells"
// column exactly; PI/PO/DFF counts and depth follow the published ISCAS-89
// characteristics. Gates = Cells - DFFs.
//
//	Ckt    Cells (paper Table 1)
//	s1196  561
//	s1238  540
//	s1488  667
//	s1494  661
//	s3330  1561
var catalog = map[string]Params{
	"s1196": {Name: "s1196", Gates: 561 - 18, DFFs: 18, PIs: 14, POs: 14, Depth: 24, Seed: 0x1196},
	"s1238": {Name: "s1238", Gates: 540 - 18, DFFs: 18, PIs: 14, POs: 14, Depth: 22, Seed: 0x1238},
	"s1488": {Name: "s1488", Gates: 667 - 6, DFFs: 6, PIs: 8, POs: 19, Depth: 17, Seed: 0x1488},
	"s1494": {Name: "s1494", Gates: 661 - 6, DFFs: 6, PIs: 8, POs: 19, Depth: 17, Seed: 0x1494},
	"s3330": {Name: "s3330", Gates: 1561 - 132, DFFs: 132, PIs: 40, POs: 73, Depth: 14, Seed: 0x3330},
}

// Catalog returns the names of the available benchmark circuits in
// deterministic order.
func Catalog() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CatalogParams returns the generation parameters for a named benchmark.
func CatalogParams(name string) (Params, error) {
	p, ok := catalog[name]
	if !ok {
		return Params{}, fmt.Errorf("gen: unknown benchmark %q (have %v)", name, Catalog())
	}
	return p, nil
}

// Benchmark generates the named catalog circuit. Generation is deterministic:
// repeated calls return structurally identical circuits.
func Benchmark(name string) (*netlist.Circuit, error) {
	p, err := CatalogParams(name)
	if err != nil {
		return nil, err
	}
	return Generate(p)
}

// LargeCells is the cell count of the "large" scale-tier preset
// (cmd/circuitgen -preset large, internal/core's TestGoldenLargeCircuit).
const LargeCells = 100_000

// ScaledParams derives generation parameters for an arbitrary cell count,
// extrapolating the ISCAS-89 profile the catalog entries follow: ~7% of
// cells are flip-flops, pad counts grow with the perimeter (√cells), and
// the depth stays in the ISCAS band so width — the placement-relevant
// dimension — absorbs the scale. The tier is deliberately NOT part of
// Catalog(): catalog iteration (service validation, the per-circuit
// golden tests) must stay cheap. Generation is deterministic in
// (cells, seed); byte-for-byte reproducibility is pinned by a golden
// hash test.
func ScaledParams(name string, cells int, seed uint64) Params {
	if cells < 64 {
		cells = 64
	}
	dffs := cells / 14
	io := int(math.Round(math.Sqrt(float64(cells))))
	if io < 8 {
		io = 8
	}
	return Params{
		Name:  name,
		Gates: cells - dffs,
		DFFs:  dffs,
		PIs:   io,
		POs:   io,
		Depth: 18,
		Seed:  seed,
	}
}

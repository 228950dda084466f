// Package simevo is a Go implementation of parallel Simulated Evolution
// (SimE) for multiobjective VLSI standard-cell placement, reproducing
//
//	Sait, Ali, Zaidi: "Evaluating Parallel Simulated Evolution Strategies
//	for VLSI Cell Placement", IPDPS 2006.
//
// The library provides:
//
//   - a gate-level circuit model with an ISCAS-89 (.bench) parser and a
//     synthetic benchmark generator reproducing the paper's test cases;
//   - cost substrates: Steiner-tree wirelength, switching-activity power,
//     static-timing delay, and the fuzzy aggregation μ(s);
//   - the serial SimE engine (evaluation, biasless selection, sorted
//     individual best-fit allocation);
//   - the paper's three parallelization strategies (Type I low-level,
//     Type II row-domain decomposition with fixed/random patterns, Type
//     III cooperating parallel searches) running on a virtual-time
//     message-passing cluster with a LogP-style fast-Ethernet model;
//   - a placement-as-a-service layer (cmd/simevo-serve backed by
//     internal/service): a JSON HTTP API with a bounded worker pool, an
//     LRU result cache, server-sent-event progress streams, and
//     cooperative job cancellation over every strategy above plus the
//     SA/GA/TS comparison metaheuristics.
//
// Long-running calls have Context variants (RunSerialContext,
// RunTypeIContext, ...) that accept cooperative cancellation and a
// per-iteration Progress callback; a cancelled run returns its best-so-far
// result.
//
// Quick start:
//
//	ckt, _ := simevo.Benchmark("s1196")
//	cfg := simevo.DefaultConfig(simevo.WirePower)
//	cfg.MaxIters = 350
//	placer, _ := simevo.NewPlacer(ckt, cfg)
//	res, _ := placer.RunSerial()
//	fmt.Printf("μ(s) = %.3f\n", res.BestMu)
package simevo

import (
	"fmt"
	"io"
	"os"

	"simevo/internal/format"
	"simevo/internal/gen"
	"simevo/internal/netlist"
)

// Circuit is a gate-level design ready for placement.
type Circuit struct {
	ckt      *netlist.Circuit
	rowsHint int
}

// Name returns the circuit's name.
func (c *Circuit) Name() string { return c.ckt.Name }

// NumCells returns the number of movable cells (gates + flip-flops),
// the paper's "Cells" column.
func (c *Circuit) NumCells() int { return c.ckt.NumMovable() }

// NumNets returns the number of signal nets.
func (c *Circuit) NumNets() int { return c.ckt.NumNets() }

// Stats returns the circuit's structural statistics.
func (c *Circuit) Stats() CircuitStats { return netlist.ComputeStats(c.ckt) }

// CircuitStats summarizes a circuit; see netlist.Stats.
type CircuitStats = netlist.Stats

// WriteBench writes the circuit in ISCAS-89 .bench format.
func (c *Circuit) WriteBench(w io.Writer) error { return netlist.WriteBench(w, c.ckt) }

// LoadBench parses a circuit in ISCAS-89 .bench format.
func LoadBench(name string, r io.Reader) (*Circuit, error) {
	ckt, err := netlist.ParseBench(name, r)
	if err != nil {
		return nil, err
	}
	return &Circuit{ckt: ckt}, nil
}

// LoadBenchFile parses a .bench file from disk.
func LoadBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadBench(path, f)
}

// Benchmark returns one of the paper's five ISCAS-89 test cases as a
// synthetic, statistically equivalent circuit: it matches the original's
// cell count, fan-in and net-degree distributions, logic depth and
// connection locality, the statistics SimE placement behaviour depends on.
// Generation is deterministic.
func Benchmark(name string) (*Circuit, error) {
	ckt, err := gen.Benchmark(name)
	if err != nil {
		return nil, err
	}
	return &Circuit{ckt: ckt}, nil
}

// BenchmarkNames lists the available benchmark circuits in the order the
// paper's tables use.
func BenchmarkNames() []string { return gen.Catalog() }

// GenerateParams parameterizes synthetic circuit generation; see gen.Params.
type GenerateParams = gen.Params

// Generate synthesizes a circuit with the given structural statistics.
func Generate(p GenerateParams) (*Circuit, error) {
	ckt, err := gen.Generate(p)
	if err != nil {
		return nil, err
	}
	return &Circuit{ckt: ckt}, nil
}

// LargeCells is the movable-cell count of the "large" scale-tier preset
// (circuitgen -preset large, the benchmark harness's large-circuit entry).
const LargeCells = gen.LargeCells

// ScaledParams derives generation parameters for an arbitrary cell count,
// extrapolating the ISCAS-89 structural profile of the bundled benchmarks.
// Generation from the result is deterministic in (cells, seed).
func ScaledParams(name string, cells int, seed uint64) GenerateParams {
	return gen.ScaledParams(name, cells, seed)
}

// LoadBookshelf ingests a Bookshelf/ISPD placement benchmark (.aux naming
// the .nodes/.nets/.pl/.scl set). Movable nodes become function-unknown
// Macro cells, terminals become I/O pads where their pin shape allows, and
// the .scl core rows fix the placement row count (see RowsHint).
func LoadBookshelf(auxPath string) (*Circuit, error) {
	d, _, err := format.LoadAux(auxPath)
	if err != nil {
		return nil, err
	}
	return &Circuit{ckt: d.Ckt, rowsHint: d.NumRows()}, nil
}

// RowsHint returns the row count the circuit's source format prescribes
// (Bookshelf .scl core rows), or 0 when the format leaves it free.
func (c *Circuit) RowsHint() int { return c.rowsHint }

// MustBenchmark is Benchmark for tests and examples; it panics on error.
func MustBenchmark(name string) *Circuit {
	c, err := Benchmark(name)
	if err != nil {
		panic(fmt.Sprintf("simevo: %v", err))
	}
	return c
}

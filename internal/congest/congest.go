// Package congest is the RUDY-style routing-congestion objective: the die
// is divided into a fixed grid of bins, every net spreads its
// half-perimeter wirelength uniformly over the bins its bounding box
// overlaps, and the objective cost is the summed demand above twice the
// average bin demand ("overflow") — a standard probabilistic measure of
// how concentrated routing demand is.
//
// The grid plugs into the engine as a cost.Objective and is rebuilt from
// every net's bounding box on each evaluation. Demand is stored as int64
// fixed-point (Scale fractional bits): integer addition is exactly
// associative and commutative, so the bins — and the cost, a pure function
// of them — do not depend on the order nets are added in. Each net's
// quantized half-perimeter is split across its bins by integer division
// with the remainder dealt one unit at a time to the leading bins in
// row-major order. A net's share is a handful of rectangles, so it is
// recorded as corner updates on a summed-area difference array, and one
// integration pass per evaluation turns the corners into bin demand. The
// overflow total is recomputed from the integer bins in a single
// deterministic pass.
//
// Bin convention: bins are half-open, [k·binW, (k+1)·binW) along x and the
// same along y, indexed by floor division — a pin sitting exactly on a bin
// boundary belongs to the higher-indexed bin — and coordinates outside the
// die (the fixed pads overhang the row span) clamp to the edge bins.
// metrics.EstimateCongestion shares this implementation and convention.
package congest

import (
	"math"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/telemetry"
)

// Scale is the fixed-point quantum: demand is stored in units of
// 2^-ScaleBits half-perimeter length. 2^20 keeps quantization error below
// 1e-6 length units per net while leaving int64 headroom for the
// bins×total products of the overflow pass at 100k-cell scale.
const (
	ScaleBits = 20
	Scale     = int64(1) << ScaleBits
)

// Source supplies the geometry the grid bins: committed cell coordinates
// and per-net pin bounding boxes. wire.Incremental satisfies it in O(1)
// per net from its sorted pin multisets; PlacementSource adapts a raw
// layout.Placement for the reference engine and the metrics report.
type Source interface {
	Coord(id netlist.CellID) (x, y float64)
	NetBBox(n netlist.NetID) (minX, minY, maxX, maxY float64, ok bool)
}

// PlacementSource adapts a layout.Placement (plus its circuit) to Source
// by visiting every pin of a net. The box is the min/max of exactly the
// same coordinate values wire.Incremental mirrors, so both sources yield
// identical bits for identical placements.
type PlacementSource struct {
	P *layout.Placement
}

// Coord returns the placement coordinates of a cell.
func (s PlacementSource) Coord(id netlist.CellID) (x, y float64) { return s.P.Coord(id) }

// NetBBox returns the pin bounding box of a net.
func (s PlacementSource) NetBBox(n netlist.NetID) (minX, minY, maxX, maxY float64, ok bool) {
	net := s.P.Circuit().Net(n)
	if net.Degree() == 0 {
		return 0, 0, 0, 0, false
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	visit := func(id netlist.CellID) {
		x, y := s.P.Coord(id)
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	visit(net.Driver)
	for _, sk := range net.Sinks {
		visit(sk)
	}
	return minX, minY, maxX, maxY, true
}

// Spec fixes a grid's geometry. It must be a static function of circuit
// and config — never of the evolving placement — so the incremental and
// reference engines, and every rank of a parallel run, bin identically.
type Spec struct {
	NX, NY        int
	Width, Height float64
}

// DefaultNX is the bin-column count used when the caller does not choose.
const DefaultNX = 16

// SpecFor derives the grid geometry for a circuit placed on numRows rows:
// the die is the average-row-width × row-span rectangle (the same frame
// layout.Placement fixes its pads around), with nx columns (<=0 selects
// DefaultNX) and rows scaled to keep bins roughly square.
func SpecFor(ckt *netlist.Circuit, numRows, nx int) Spec {
	width := float64(ckt.TotalWidth()) / float64(numRows)
	height := float64(numRows) * layout.RowPitch
	return SpecSized(width, height, nx)
}

// SpecSized derives the grid geometry for an explicit die rectangle.
func SpecSized(width, height float64, nx int) Spec {
	if nx <= 0 {
		nx = DefaultNX
	}
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	ny := int(math.Max(1, math.Round(float64(nx)*height/width)))
	return Spec{NX: nx, NY: ny, Width: width, Height: height}
}

// rect is a net's covered bin range, inclusive; x0 == -1 marks a net that
// contributes no demand.
type rect struct {
	x0, y0, x1, y1 int32
}

var noRect = rect{x0: -1}

// Grid is the congestion objective. It is not safe for concurrent
// mutation; the engine evaluates it from its own goroutine like every
// other cost.Objective.
type Grid struct {
	spec       Spec
	binW, binH float64
	src        Source

	demand []int64 // nx*ny quantized bin demand, row-major
	diff   []int64 // (nx+1)*(ny+1) corner updates; demand is its 2-D prefix sum
	rects  []rect  // per-net covered bins (NetScore reads them)

	val          float64 // cost of the last Full
	total        int64   // Σ demand of the last evaluation
	peak         int64   // max bin demand of the last evaluation
	overflowNum  int64   // overflow numerator, units of Scale·NX·NY
	nBinUpdates  uint64
	nRebuilds    uint64
	lastBinUpd   uint64 // value of nBinUpdates already flushed to telemetry
	lastRebuilds uint64
	silent       bool
}

// New creates a grid for a circuit. src may be nil at construction
// (SetSource must run before the first evaluation).
func New(ckt *netlist.Circuit, spec Spec, src Source) *Grid {
	g := &Grid{
		spec:   spec,
		binW:   spec.Width / float64(spec.NX),
		binH:   spec.Height / float64(spec.NY),
		src:    src,
		demand: make([]int64, spec.NX*spec.NY),
		diff:   make([]int64, (spec.NX+1)*(spec.NY+1)),
		rects:  make([]rect, ckt.NumNets()),
	}
	for i := range g.rects {
		g.rects[i] = noRect
	}
	return g
}

// SetSource (re)binds the geometry source. The engine points the grid at
// its wire.Incremental mirror, or at the live placement in reference
// mode, before every evaluation.
func (g *Grid) SetSource(src Source) { g.src = src }

// Spec returns the grid geometry.
func (g *Grid) Spec() Spec { return g.spec }

// BinX maps an x coordinate to its bin column under the package's
// floor-division half-open convention, clamping overhang to the edges.
func (g *Grid) BinX(x float64) int { return binIndex(x, g.binW, g.spec.NX) }

// BinY maps a y coordinate to its bin row.
func (g *Grid) BinY(y float64) int { return binIndex(y, g.binH, g.spec.NY) }

func binIndex(v, bin float64, n int) int {
	i := int(math.Floor(v / bin))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Bit identifies the objective in the fuzzy aggregation.
func (g *Grid) Bit() fuzzy.Objectives { return fuzzy.Congest }

// Name is the stable phase-report identifier.
func (g *Grid) Name() string { return "congestion" }

// Value returns the cost of the last evaluation.
func (g *Grid) Value() float64 { return g.val }

// Full rebuilds the grid from every net's current bounding box.
func (g *Grid) Full(lengths []float64) float64 {
	g.nRebuilds++
	clear(g.diff)
	for n := range g.rects {
		g.addNet(netlist.NetID(n))
	}
	g.integrate()
	return g.finish()
}

// integrate turns the corner updates into bin demand: each bin is the sum
// of the difference array over the rectangle from the grid origin to it,
// computed row by row as a running row sum plus the bin below. The sums
// are integers, so the bins do not depend on the order nets were added.
func (g *Grid) integrate() {
	nx, ny := g.spec.NX, g.spec.NY
	for y := 0; y < ny; y++ {
		src := g.diff[y*(nx+1) : y*(nx+1)+nx]
		row := g.demand[y*nx : y*nx+nx]
		acc := int64(0)
		if y == 0 {
			for x, d := range src {
				acc += d
				row[x] = acc
			}
			continue
		}
		below := g.demand[(y-1)*nx : y*nx]
		for x, d := range src {
			acc += d
			row[x] = acc + below[x]
		}
	}
}

// addNet quantizes a net's half-perimeter, spreads it over the bins its
// box overlaps, and records the box for NetScore.
func (g *Grid) addNet(n netlist.NetID) {
	g.rects[n] = noRect
	minX, minY, maxX, maxY, ok := g.src.NetBBox(n)
	if !ok {
		return
	}
	hp := (maxX - minX) + (maxY - minY)
	q := int64(math.Round(hp * float64(Scale)))
	if q <= 0 {
		return
	}
	r := rect{
		x0: int32(g.BinX(minX)), y0: int32(g.BinY(minY)),
		x1: int32(g.BinX(maxX)), y1: int32(g.BinY(maxY)),
	}
	g.rects[n] = r
	g.spread(r, q)
}

// spread adds q split over r's bins: base share q/bins everywhere, and the
// first q%bins bins in row-major order take one extra unit, so the bins
// sum to exactly q. Those leading bins are the remainder's full rows plus
// a prefix of the next row, so the share is at most three rectangles,
// each recorded as four corner updates for integrate. nBinUpdates still
// counts the covered bins.
func (g *Grid) spread(r rect, q int64) {
	w := int64(r.x1 - r.x0 + 1)
	bins := w * int64(r.y1-r.y0+1)
	base, remn := q/bins, q%bins
	if base != 0 {
		g.addRect(r.x0, r.y0, r.x1, r.y1, base)
	}
	if full := int32(remn / w); full > 0 {
		g.addRect(r.x0, r.y0, r.x1, r.y0+full-1, 1)
	}
	if part := int32(remn % w); part > 0 {
		y := r.y0 + int32(remn/w)
		g.addRect(r.x0, y, r.x0+part-1, y, 1)
	}
	g.nBinUpdates += uint64(bins)
}

// addRect adds d to every bin of the inclusive range [x0, x1]×[y0, y1]
// through the difference array's four corners.
func (g *Grid) addRect(x0, y0, x1, y1 int32, d int64) {
	stride := int32(g.spec.NX + 1)
	g.diff[y0*stride+x0] += d
	g.diff[y0*stride+x1+1] -= d
	g.diff[(y1+1)*stride+x0] -= d
	g.diff[(y1+1)*stride+x1+1] += d
}

// finish recomputes total, peak, and the overflow cost from the integer
// bins in a single deterministic left-to-right pass.
func (g *Grid) finish() float64 {
	var total, peak int64
	for _, d := range g.demand {
		total += d
		if d > peak {
			peak = d
		}
	}
	// Overflow: Σ_b max(0, demand_b − 2·total/B) without leaving the
	// integers — compare B·demand_b against 2·total and accumulate the
	// numerator in units of Scale·B.
	b := int64(len(g.demand))
	var over int64
	for _, d := range g.demand {
		if ex := b*d - 2*total; ex > 0 {
			over += ex
		}
	}
	g.total, g.peak, g.overflowNum = total, peak, over
	g.val = float64(over) / (float64(Scale) * float64(b))
	if !g.silent {
		telemetry.CongestBinUpdates.Add(g.nBinUpdates - g.lastBinUpd)
		telemetry.CongestRebuilds.Add(g.nRebuilds - g.lastRebuilds)
		g.lastBinUpd, g.lastRebuilds = g.nBinUpdates, g.nRebuilds
		telemetry.CongestPeak.Set(g.peak / Scale)
		telemetry.CongestOverflow.Set(int64(g.val))
	}
	return g.val
}

// Peak returns the maximum bin demand of the last evaluation, in
// half-perimeter length units.
func (g *Grid) Peak() float64 { return float64(g.peak) / float64(Scale) }

// Avg returns the mean bin demand of the last evaluation.
func (g *Grid) Avg() float64 {
	return float64(g.total) / float64(Scale) / float64(len(g.demand))
}

// Overflow returns the cost of the last evaluation (alias of Value with
// the metric's name).
func (g *Grid) Overflow() float64 { return g.val }

// Demand copies the bin demand out as float64, row-major.
func (g *Grid) Demand(dst []float64) []float64 {
	if cap(dst) < len(g.demand) {
		dst = make([]float64, len(g.demand))
	}
	dst = dst[:len(g.demand)]
	for i, d := range g.demand {
		dst[i] = float64(d) / float64(Scale)
	}
	return dst
}

// Stats reports the grid's lifetime churn counters.
func (g *Grid) Stats() (binUpdates, rebuilds uint64) { return g.nBinUpdates, g.nRebuilds }

// CellScore is the goodness hook: 1 − (cell's bin demand / peak demand),
// so cells in the hottest bin score 0 and cells in empty bins score 1.
// Like delay criticality, the score depends on a global quantity (the
// peak), so the engine re-reads it on every goodness aggregation.
func (g *Grid) CellScore(id netlist.CellID) float64 {
	if g.peak == 0 {
		return 1
	}
	x, y := g.src.Coord(id)
	d := g.demand[g.BinY(y)*g.spec.NX+g.BinX(x)]
	return 1 - float64(d)/float64(g.peak)
}

// NetScore is the allocation trial weight: the relative demand of the bin
// under the net's box center — nets anchored in hot regions weigh more,
// steering the best-fit scan toward spreading them.
func (g *Grid) NetScore(n netlist.NetID) float64 {
	r := g.rects[n]
	if r.x0 < 0 || g.peak == 0 {
		return 0
	}
	d := g.demand[int((r.y0+r.y1)/2)*g.spec.NX+int((r.x0+r.x1)/2)]
	return float64(d) / float64(g.peak)
}

// Silence disables the process-wide telemetry flush — one-shot diagnostic
// grids (metrics.EstimateCongestion) keep the engine's gauges clean.
func (g *Grid) Silence() { g.silent = true }

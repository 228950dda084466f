// Package power estimates per-net switching activity and the placement
// power cost of the paper's Section 2:
//
//	Cost_power = Σ_i l_i · S_i
//
// where l_i is the wirelength estimate of net i and S_i its switching
// probability. Switching probabilities are derived from signal
// probabilities propagated through the logic under the standard spatial/
// temporal independence assumptions: primary inputs have a configurable
// one-probability (default 0.5); a gate's output probability follows from
// its truth function over independent inputs; the switching activity of a
// net with one-probability p is S = 2·p·(1−p). Sequential feedback through
// flip-flops is resolved by fixpoint iteration. The sum itself is the power
// objective of the cost pipeline (internal/cost), weighted by the
// activities FromProbabilities derives here.
package power

import (
	"fmt"
	"math"

	"simevo/internal/netlist"
)

// Config controls activity estimation.
type Config struct {
	// PIProb is the one-probability of primary inputs.
	PIProb float64
	// MaxIters bounds the sequential fixpoint iteration.
	MaxIters int
	// Tol is the convergence threshold on the largest probability change
	// between iterations.
	Tol float64
}

// DefaultConfig returns the standard estimation parameters.
func DefaultConfig() Config {
	return Config{PIProb: 0.5, MaxIters: 50, Tol: 1e-9}
}

// FromProbabilities derives switching activities from steady-state
// one-probabilities: S = 2·p·(1−p). Callers that already paid for the
// probability fixpoint (core.Problem caches it once per problem) convert
// without re-propagating the circuit.
func FromProbabilities(probs []float64) []float64 {
	acts := make([]float64, len(probs))
	for i, p := range probs {
		acts[i] = 2 * p * (1 - p)
	}
	return acts
}

// Probabilities computes the steady-state one-probability of every net.
func Probabilities(ckt *netlist.Circuit, cfg Config) ([]float64, error) {
	if cfg.PIProb < 0 || cfg.PIProb > 1 {
		return nil, fmt.Errorf("power: PI probability %v out of [0,1]", cfg.PIProb)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 1
	}
	lv, err := ckt.Levelize()
	if err != nil {
		return nil, err
	}
	tp := compileTape(ckt, lv)

	prob := make([]float64, ckt.NumNets())
	// Initialize: PI nets at PIProb, DFF outputs at 0.5 (resolved by the
	// fixpoint below), everything else propagated.
	for _, pi := range ckt.PIs {
		prob[ckt.Cells[pi].Out] = cfg.PIProb
	}
	for _, out := range tp.dffOut {
		prob[out] = 0.5
	}
	// Macro outputs have no truth function to propagate through; they keep
	// the neutral probability (maximum switching activity S = 0.5).
	for i := range ckt.Cells {
		if cell := &ckt.Cells[i]; cell.Type == netlist.Macro && cell.Out != netlist.NoNet {
			prob[cell.Out] = 0.5
		}
	}

	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Combinational propagation in topological order.
		for k, t := range tp.typ {
			prob[tp.out[k]] = gateProb(t, tp.in[tp.off[k]:tp.off[k+1]], prob)
		}
		// Synchronous DFF update: output probability becomes the data
		// input's steady-state probability.
		delta := 0.0
		for k, out := range tp.dffOut {
			next := prob[tp.dffIn[k]]
			if d := math.Abs(next - prob[out]); d > delta {
				delta = d
			}
			prob[out] = next
		}
		if delta <= cfg.Tol {
			break
		}
	}
	return prob, nil
}

// gateTape is a circuit's logic compiled for the probability fixpoint:
// the combinational gates as flat arrays (gate k has type typ[k], drives
// net out[k] and reads in[off[k]:off[k+1]]), and the DFFs as
// data-input/output net pairs. A sweep then reads a few arrays in order
// instead of chasing Cell structs through the level order.
type gateTape struct {
	typ    []netlist.GateType
	out    []netlist.NetID
	off    []int32
	in     []netlist.NetID
	dffIn  []netlist.NetID
	dffOut []netlist.NetID
}

// compileTape lays the gates out by level and, within a level, by type
// and fan-in. A gate reads only nets driven by sources or by gates of
// lower levels, so any order within a level computes every probability
// bit for bit as the level order does; grouping like gates keeps the
// per-gate branches of a sweep predictable.
func compileTape(ckt *netlist.Circuit, lv *netlist.Levels) gateTape {
	var byLevel []netlist.CellID // the gates in lv.Order's order
	pins := 0
	for _, id := range lv.Order {
		if cell := &ckt.Cells[id]; isGate(cell.Type) {
			byLevel = append(byLevel, id)
			pins += len(cell.In)
		}
	}
	// A stable counting sort of each level on (type, fan-in), fan-ins
	// above seven sharing one group.
	const fanins = 8
	const groups = (int(netlist.Macro) + 1) * fanins
	group := func(id netlist.CellID) int {
		cell := &ckt.Cells[id]
		return int(cell.Type)*fanins + min(len(cell.In), fanins-1)
	}
	order := make([]netlist.CellID, len(byLevel))
	var next [groups + 1]int32
	for lo := 0; lo < len(byLevel); {
		hi := lo + 1
		for hi < len(byLevel) && lv.Level[byLevel[hi]] == lv.Level[byLevel[lo]] {
			hi++
		}
		next = [groups + 1]int32{}
		for _, id := range byLevel[lo:hi] {
			next[group(id)+1]++
		}
		for g := 1; g <= groups; g++ {
			next[g] += next[g-1]
		}
		for _, id := range byLevel[lo:hi] {
			g := group(id)
			order[lo+int(next[g])] = id
			next[g]++
		}
		lo = hi
	}
	tp := gateTape{
		typ:    make([]netlist.GateType, len(order)),
		out:    make([]netlist.NetID, len(order)),
		off:    make([]int32, 1, len(order)+1),
		in:     make([]netlist.NetID, 0, pins),
		dffIn:  make([]netlist.NetID, len(ckt.DFFs)),
		dffOut: make([]netlist.NetID, len(ckt.DFFs)),
	}
	for k, id := range order {
		cell := &ckt.Cells[id]
		tp.typ[k], tp.out[k] = cell.Type, cell.Out
		tp.in = append(tp.in, cell.In...)
		tp.off = append(tp.off, int32(len(tp.in)))
	}
	for k, ff := range ckt.DFFs {
		tp.dffIn[k], tp.dffOut[k] = ckt.Cells[ff].In[0], ckt.Cells[ff].Out
	}
	return tp
}

// isGate reports whether cells of type t have a truth function the
// fixpoint propagates: everything but pads, DFFs and Macros.
func isGate(t netlist.GateType) bool {
	return t != netlist.Input && t != netlist.Output && t != netlist.DFF && t != netlist.Macro
}

// gateProb evaluates the output one-probability of a gate from its input
// net probabilities assuming independence.
func gateProb(t netlist.GateType, in []netlist.NetID, prob []float64) float64 {
	switch t {
	case netlist.And:
		p := 1.0
		for _, n := range in {
			p *= prob[n]
		}
		return p
	case netlist.Nand:
		p := 1.0
		for _, n := range in {
			p *= prob[n]
		}
		return 1 - p
	case netlist.Or:
		q := 1.0
		for _, n := range in {
			q *= 1 - prob[n]
		}
		return 1 - q
	case netlist.Nor:
		q := 1.0
		for _, n := range in {
			q *= 1 - prob[n]
		}
		return q
	case netlist.Not:
		return 1 - prob[in[0]]
	case netlist.Buf:
		return prob[in[0]]
	case netlist.Xor, netlist.Xnor:
		// Fold pairwise: P(a xor b) = a(1-b) + b(1-a).
		p := prob[in[0]]
		for _, n := range in[1:] {
			q := prob[n]
			p = p*(1-q) + q*(1-p)
		}
		if t == netlist.Xnor {
			return 1 - p
		}
		return p
	}
	panic(fmt.Sprintf("power: gateProb on non-gate type %v", t))
}

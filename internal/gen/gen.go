// Package gen synthesizes gate-level circuits that are statistically
// equivalent to the ISCAS-89 benchmarks used in the paper's evaluation.
//
// The real ISCAS-89 netlist files are not redistributable in this offline
// workspace, so the experiments run on synthetic stand-ins generated here.
// The substitution is sound because SimE placement behaviour is driven by
// netlist statistics — cell count, fan-in distribution, net degree
// distribution, logic depth, and connection locality — all of which the
// generator reproduces for each catalog entry. Real .bench files, when
// available, load through netlist.ParseBench and run unchanged.
package gen

import (
	"fmt"
	"slices"
	"strconv"

	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// Params controls circuit synthesis.
type Params struct {
	Name string
	// Gates is the number of combinational gates; DFFs is the number of
	// flip-flops. Movable cell count = Gates + DFFs.
	Gates int
	DFFs  int
	// PIs and POs are the primary input/output pad counts.
	PIs, POs int
	// Depth is the target combinational depth (levels of logic).
	Depth int
	// FaninDist[k] is the relative weight of fan-in k+1 for combinational
	// gates. A typical ISCAS-89 profile is {0.30, 0.45, 0.15, 0.07, 0.03}
	// (fan-in 1..5).
	FaninDist []float64
	// Locality in (0,1] biases input selection toward recent levels; higher
	// values produce more local (shorter) connections. 0 selects the
	// default of 0.5.
	Locality float64
	// Seed makes generation deterministic.
	Seed uint64
}

func (p *Params) withDefaults() Params {
	q := *p
	if q.FaninDist == nil {
		q.FaninDist = []float64{0.30, 0.45, 0.15, 0.07, 0.03}
	}
	if q.Locality == 0 {
		q.Locality = 0.5
	}
	if q.Depth <= 0 {
		q.Depth = 12
	}
	if q.PIs <= 0 {
		q.PIs = 8
	}
	if q.POs <= 0 {
		q.POs = 8
	}
	return q
}

// gateForFanin picks a plausible gate function for the given fan-in.
func gateForFanin(r *rng.R, fanin int) netlist.GateType {
	if fanin == 1 {
		if r.Bernoulli(0.7) {
			return netlist.Not
		}
		return netlist.Buf
	}
	switch r.Intn(6) {
	case 0:
		return netlist.And
	case 1, 2:
		return netlist.Nand
	case 3:
		return netlist.Or
	case 4:
		return netlist.Nor
	default:
		if fanin == 2 {
			if r.Bernoulli(0.5) {
				return netlist.Xor
			}
			return netlist.Xnor
		}
		return netlist.Nand
	}
}

// Generate synthesizes a circuit per the parameters. The construction builds
// a layered DAG: level 0 holds PIs and DFF outputs; combinational gates are
// spread over levels 1..Depth; each gate draws inputs from earlier levels
// with a geometric locality bias. DFF data inputs and POs connect from the
// deepest levels, closing the sequential loops.
func Generate(p Params) (*netlist.Circuit, error) {
	p = p.withDefaults()
	if p.Gates < p.Depth {
		return nil, fmt.Errorf("gen: %d gates cannot fill depth %d", p.Gates, p.Depth)
	}
	if p.Gates <= 0 || p.PIs <= 0 || p.POs <= 0 {
		return nil, fmt.Errorf("gen: gates, PIs and POs must be positive")
	}

	r := rng.New(p.Seed)
	b := netlist.NewBuilder(p.Name)
	b.Grow(p.PIs + p.DFFs + p.Gates + p.POs)

	// Level 0 signal pool: PIs and DFF outputs.
	var levels [][]string
	var level0 []string
	for i := 0; i < p.PIs; i++ {
		name := "pi" + strconv.Itoa(i)
		b.AddInput(name)
		level0 = append(level0, name)
	}
	dffNames := make([]string, p.DFFs)
	for i := 0; i < p.DFFs; i++ {
		dffNames[i] = "ff" + strconv.Itoa(i)
		level0 = append(level0, dffNames[i])
	}
	levels = append(levels, level0)

	// Distribute gates over levels 1..Depth: deeper circuits narrow toward
	// the outputs, so weight early levels slightly more.
	perLevel := make([]int, p.Depth+1)
	remaining := p.Gates
	for lvl := 1; lvl <= p.Depth; lvl++ {
		perLevel[lvl] = 1 // every level keeps at least one gate
		remaining--
	}
	// Weight level l by Depth-l+1 for a gently tapering profile.
	w := make([]float64, p.Depth)
	for i := range w {
		w[i] = float64(p.Depth - i + 1)
	}
	for remaining > 0 {
		perLevel[1+r.Pick(w)]++
		remaining--
	}

	// pickInput chooses a source signal for a gate at the given level,
	// preferring recent levels (geometric with parameter Locality).
	pickInput := func(level int) string {
		back := 1 + r.Geometric(p.Locality, level-1)
		if back > level {
			back = level
		}
		src := levels[level-back]
		return src[r.Intn(len(src))]
	}

	gateNum := 0
	var inputs []string // AddGate copies it, so one buffer serves every gate
	for lvl := 1; lvl <= p.Depth; lvl++ {
		cur := make([]string, 0, perLevel[lvl])
		signals := totalSignals(levels) // levels grows only after this one
		for g := 0; g < perLevel[lvl]; g++ {
			fanin := 1 + r.Pick(p.FaninDist)
			typ := gateForFanin(r, fanin)
			inputs = inputs[:0]
			distinct := 0
			if g == 0 {
				// Anchor each level to the previous one so the realized
				// combinational depth matches the target exactly.
				prev := levels[lvl-1]
				inputs = append(inputs, prev[r.Intn(len(prev))])
				distinct++
			}
			for len(inputs) < fanin {
				sig := pickInput(lvl)
				if slices.Contains(inputs, sig) {
					if distinct < signals {
						continue // avoid duplicate pins when alternatives exist
					}
				} else {
					distinct++
				}
				inputs = append(inputs, sig)
			}
			name := "g" + strconv.Itoa(gateNum)
			gateNum++
			b.AddGate(name, typ, inputs, 0)
			cur = append(cur, name)
		}
		levels = append(levels, cur)
	}

	// Deep signal pool for DFF inputs and POs: last third of the levels,
	// extended toward level 1 until it can cover the PO count without
	// repetition (each primary output must observe a distinct signal).
	var deep []string
	start := 1 + (2*p.Depth)/3
	for {
		deep = deep[:0]
		for lvl := start; lvl <= p.Depth; lvl++ {
			deep = append(deep, levels[lvl]...)
		}
		if len(deep) >= p.POs || start <= 1 {
			break
		}
		start--
	}
	if len(deep) < p.POs {
		return nil, fmt.Errorf("gen: only %d gate signals for %d outputs", len(deep), p.POs)
	}

	for i := 0; i < p.DFFs; i++ {
		b.AddGate(dffNames[i], netlist.DFF, []string{deep[r.Intn(len(deep))]}, 0)
	}
	perm := r.Perm(len(deep))
	for i := 0; i < p.POs; i++ {
		b.AddOutput(deep[perm[i]])
	}

	return b.Build()
}

func totalSignals(levels [][]string) int {
	n := 0
	for _, l := range levels {
		n += len(l)
	}
	return n
}

package netlist_test

import (
	"strings"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/netlist"
)

// FuzzParseBench feeds arbitrary text to the .bench parser, the format of
// the service's inline netlist uploads. Parsing must not panic, and any
// circuit it accepts must go through core.NewProblem — levelization,
// switching activities, reference costs — without a panic; an error is a
// valid answer.
func FuzzParseBench(f *testing.F) {
	for _, seed := range []string{
		"",
		"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n",
		"# small\nINPUT(a)\nINPUT(b)\nOUTPUT(g3)\ng1 = NAND(a, b)\ng2 = NOT(g1)\nff = DFF(g2)\ng3 = OR(ff, a)\n",
		"INPUT(a)\nOUTPUT(x)\nx = AND(y, a)\ny = OR(x, a)\n",
		"INPUT(a)\nOUTPUT(a)\n",
		"OUTPUT(z)\nz = DFF(z)\n",
		"INPUT(a)\nOUTPUT(q)\nq = XOR(a, a, a)\nq = BUFF(a)\n",
		"x = NAND()\n",
		"INPUT(a\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ckt, err := netlist.ParseBench("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		core.NewProblem(ckt, core.DefaultConfig(fuzzy.WirePower))
	})
}

package netlist

import "fmt"

// Levels holds a topological levelization of the circuit's combinational
// view: DFF outputs and primary inputs are sources at level 0; every other
// cell's level is 1 + max level of its combinational fan-in. Edges into a
// DFF's data pin do not propagate (the DFF is a path sink on that side).
// The Levels of a validated circuit are shared by every reader and must
// not be modified.
type Levels struct {
	// Level[i] is the combinational level of cell i. Output pads take the
	// level of their driver + 1 so that POs terminate paths.
	Level []int
	// Order lists all cells in non-decreasing level order (a valid
	// topological order of the combinational DAG).
	Order []CellID
	// Depth is the maximum level.
	Depth int
}

// Levelize returns the combinational levelization, or an error if the
// combinational view contains a cycle (which indicates an un-clocked
// feedback loop — invalid for the timing model). A validated circuit
// returns the Levels Validate computed, the same pointer on every call,
// so concurrent callers only read; an unvalidated one is levelized anew
// on each call and keeps nothing.
func (c *Circuit) Levelize() (*Levels, error) {
	if c.levels != nil {
		return c.levels, nil
	}
	return c.levelize()
}

func (c *Circuit) levelize() (*Levels, error) {
	n := len(c.Cells)
	indeg := make([]int32, n)

	// Combinational edges: driver -> sink for each net, except edges OUT OF
	// a DFF do not count toward its sinks' level... no: DFF output is a
	// *source*, so edges out of DFFs exist; edges INTO a DFF (its data
	// input) terminate — the DFF itself has level 0 regardless of fan-in.
	// Macro cells have no known truth function, so like DFFs they cut
	// combinational paths: their outputs are sources, their inputs sinks.
	isSource := func(id CellID) bool {
		t := c.Cells[id].Type
		return t == Input || t == DFF || t == Macro
	}

	for i := range c.Cells {
		if isSource(CellID(i)) {
			indeg[i] = 0
			continue
		}
		indeg[i] = int32(len(c.Cells[i].In))
	}

	// Cells leave the FIFO queue in the order they enter it, so Order
	// doubles as the queue: Order[head:] is still to be processed.
	lv := &Levels{Level: make([]int, n), Order: make([]CellID, 0, n)}
	for i := range c.Cells {
		if indeg[i] == 0 {
			lv.Order = append(lv.Order, CellID(i))
		}
	}

	for head := 0; head < len(lv.Order); head++ {
		id := lv.Order[head]
		if lv.Level[id] > lv.Depth {
			lv.Depth = lv.Level[id]
		}
		out := c.Cells[id].Out
		if out == NoNet {
			continue
		}
		for _, s := range c.Nets[out].Sinks {
			if isSource(s) {
				continue // edge into a DFF data pin: path ends there
			}
			if l := lv.Level[id] + 1; l > lv.Level[s] {
				lv.Level[s] = l
			}
			indeg[s]--
			if indeg[s] == 0 {
				lv.Order = append(lv.Order, s)
			}
		}
	}

	// Sources that are DFFs were enqueued above; DFF data fan-in edges were
	// skipped, so a deficit means a purely combinational cycle.
	if len(lv.Order) != n {
		return nil, fmt.Errorf("netlist: %s has a combinational cycle (%d of %d cells levelized)",
			c.Name, len(lv.Order), n)
	}
	return lv, nil
}

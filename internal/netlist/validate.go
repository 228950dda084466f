package netlist

import "fmt"

// Validate checks the structural invariants of the circuit:
//
//   - every cell id and net id is consistent with its index;
//   - every net has a valid driver whose Out points back at the net;
//   - every sink of a net lists the net among its inputs;
//   - pads have the right pin shape (inputs drive, outputs consume one net);
//   - the combinational view (DFF outputs as sources) is acyclic.
//
// A valid circuit keeps the levelization computed here; Levelize returns
// it from then on.
func (c *Circuit) Validate() error {
	c.levels = nil
	for i := range c.Cells {
		cell := &c.Cells[i]
		if cell.ID != CellID(i) {
			return fmt.Errorf("netlist: cell %d has ID %d", i, cell.ID)
		}
		switch cell.Type {
		case Input:
			if len(cell.In) != 0 {
				return fmt.Errorf("netlist: input pad %q has %d inputs", cell.Name, len(cell.In))
			}
			if cell.Out == NoNet {
				return fmt.Errorf("netlist: input pad %q drives no net", cell.Name)
			}
		case Output:
			if len(cell.In) != 1 {
				return fmt.Errorf("netlist: output pad %q has %d inputs, want 1", cell.Name, len(cell.In))
			}
			if cell.Out != NoNet {
				return fmt.Errorf("netlist: output pad %q drives a net", cell.Name)
			}
		case Macro:
			// Function-unknown cells (Bookshelf ingestion) have free pin
			// shape: they may only sink nets, only drive one, or both.
			// Physical width is the one invariant placement needs.
			if cell.Width <= 0 {
				return fmt.Errorf("netlist: macro %q has non-positive width %d", cell.Name, cell.Width)
			}
			if cell.Out == NoNet && len(cell.In) == 0 {
				return fmt.Errorf("netlist: macro %q is disconnected", cell.Name)
			}
		default:
			if len(cell.In) == 0 {
				return fmt.Errorf("netlist: gate %q has no inputs", cell.Name)
			}
			if cell.Out == NoNet {
				return fmt.Errorf("netlist: gate %q drives no net", cell.Name)
			}
			if cell.Width <= 0 {
				return fmt.Errorf("netlist: gate %q has non-positive width %d", cell.Name, cell.Width)
			}
		}
		for _, n := range cell.In {
			if n < 0 || int(n) >= len(c.Nets) {
				return fmt.Errorf("netlist: cell %q has out-of-range input net %d", cell.Name, n)
			}
		}
		if cell.Out != NoNet {
			if int(cell.Out) >= len(c.Nets) {
				return fmt.Errorf("netlist: cell %q has out-of-range output net %d", cell.Name, cell.Out)
			}
			if c.Nets[cell.Out].Driver != cell.ID {
				return fmt.Errorf("netlist: cell %q output net %d driven by cell %d",
					cell.Name, cell.Out, c.Nets[cell.Out].Driver)
			}
		}
	}

	for i := range c.Nets {
		net := &c.Nets[i]
		if net.ID != NetID(i) {
			return fmt.Errorf("netlist: net %d has ID %d", i, net.ID)
		}
		if net.Driver == NoCell || int(net.Driver) >= len(c.Cells) {
			return fmt.Errorf("netlist: net %q has invalid driver", net.Name)
		}
		if c.Cells[net.Driver].Out != net.ID {
			return fmt.Errorf("netlist: net %q driver does not drive it", net.Name)
		}
		for _, s := range net.Sinks {
			if s < 0 || int(s) >= len(c.Cells) {
				return fmt.Errorf("netlist: net %q has out-of-range sink %d", net.Name, s)
			}
			found := false
			for _, in := range c.Cells[s].In {
				if in == net.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: net %q sink %q does not list it as input",
					net.Name, c.Cells[s].Name)
			}
		}
	}

	lv, err := c.levelize()
	if err != nil {
		return err
	}
	c.levels = lv
	return nil
}

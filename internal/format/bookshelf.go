// Package format ingests external physical-design exchange formats into
// the simevo netlist/layout model. The initial (and so far only) format is
// Bookshelf — the .aux/.nodes/.nets/.pl/.scl file set used by the ISPD
// placement contests and the GSRC benchmark suites.
//
// The Bookshelf model is purely physical: nodes have geometry and nets
// have undirected pin lists, but no logic functions. Ingestion therefore
// maps every movable node to a netlist.Macro cell (path-cutting,
// probability-neutral), assigns each net a driver from its pin directions
// ("O" pins first, then greedily among nodes not yet driving a net — the
// netlist model gives each cell at most one output), and classifies fixed
// terminals as Input/Output pads when their pin shape allows, falling back
// to Macro otherwise.
//
// Geometry maps onto the internal row grid: the k-th .scl core row (by
// ascending Coordinate) becomes layout row k, node widths convert to
// integer sites by rounding against the row's Sitewidth, and the .pl
// initial placement seeds the row assignment (row = nearest .scl row,
// in-row order = ascending x). WritePl inverts the mapping — left-edge
// x = SubrowOrigin + (site prefix sum)·Sitewidth — so one parse→write
// cycle reaches a fixed point: writing, re-reading, and writing again
// produces byte-identical output.
package format

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"simevo/internal/layout"
	"simevo/internal/netlist"
)

// Row is one .scl core row, in Bookshelf units.
type Row struct {
	Coordinate   float64 // y of the row's bottom edge
	Height       float64
	SiteWidth    float64
	SubrowOrigin float64 // x of the row's left edge
	NumSites     int
}

// Design is a parsed Bookshelf placement problem mapped onto the internal
// model: the circuit, the row geometry, and the fixed terminal locations
// (kept verbatim for .pl round-tripping).
type Design struct {
	Ckt  *netlist.Circuit
	Rows []Row

	// termX/termY hold the .pl coordinates of fixed (terminal) cells,
	// indexed by CellID; movable entries are unused.
	termX, termY map[netlist.CellID]float64
	// widthSites is each cell's converted width (kept for WritePl's
	// prefix sums even though Ckt carries the same numbers).
	fixed map[netlist.CellID]bool
}

// NumRows returns the number of core rows, which is also the layout row
// count the design places into.
func (d *Design) NumRows() int { return len(d.Rows) }

// maxAuxBytes bounds the .aux file LoadAux reads. An .aux file only
// names the member files, so a few hundred bytes is typical.
const maxAuxBytes = 64 << 10

// LoadAux parses a Bookshelf .aux file and the file set it names. The
// member files are resolved relative to the .aux file's directory.
func LoadAux(path string) (*Design, *layout.Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("format: %w", err)
	}
	defer f.Close()
	blob, err := io.ReadAll(io.LimitReader(f, maxAuxBytes+1))
	if err != nil {
		return nil, nil, fmt.Errorf("format: %w", err)
	}
	if len(blob) > maxAuxBytes {
		return nil, nil, fmt.Errorf("format: %s is larger than %d bytes", path, maxAuxBytes)
	}
	files, err := parseAux(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("format: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	name := strings.TrimSuffix(filepath.Base(path), ".aux")
	return loadFiles(name, filepath.Join(dir, files.nodes), filepath.Join(dir, files.nets),
		filepath.Join(dir, files.pl), filepath.Join(dir, files.scl))
}

// auxFiles are the member file names an .aux file lists, as written.
type auxFiles struct {
	nodes, nets, pl, scl string
}

// parseAux reads the text of a Bookshelf .aux file, whose syntax is
// "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl". The names after
// the first colon must include exactly one .nodes, .nets, .pl and .scl
// file; other names (.wts weights, which are unused) are skipped.
func parseAux(blob []byte) (auxFiles, error) {
	line := strings.TrimSpace(string(blob))
	if i := strings.Index(line, ":"); i >= 0 {
		line = line[i+1:]
	}
	var files auxFiles
	for _, f := range strings.Fields(line) {
		var slot *string
		switch filepath.Ext(f) {
		case ".nodes":
			slot = &files.nodes
		case ".nets":
			slot = &files.nets
		case ".pl":
			slot = &files.pl
		case ".scl":
			slot = &files.scl
		default:
			continue
		}
		if *slot != "" {
			return auxFiles{}, fmt.Errorf("names two %s files, %s and %s", filepath.Ext(f), *slot, f)
		}
		*slot = f
	}
	for _, req := range []struct{ ext, name string }{
		{".nodes", files.nodes}, {".nets", files.nets}, {".pl", files.pl}, {".scl", files.scl},
	} {
		if req.name == "" {
			return auxFiles{}, fmt.Errorf("names no %s file", req.ext)
		}
	}
	return files, nil
}

// bookshelfNode is a .nodes entry before circuit construction.
type bookshelfNode struct {
	name     string
	width    float64
	terminal bool
}

// bookshelfPin is one pin of a .nets entry.
type bookshelfPin struct {
	node int  // index into the nodes slice
	out  bool // direction "O" (or "B")
}

// bookshelfNet is a .nets entry.
type bookshelfNet struct {
	name string
	pins []bookshelfPin
}

// member is one file of a Bookshelf set: its name, for messages, and its
// bytes.
type member struct {
	name string
	r    io.Reader
}

func loadFiles(name, nodesPath, netsPath, plPath, sclPath string) (*Design, *layout.Placement, error) {
	var files [4]member
	for i, path := range [...]string{nodesPath, netsPath, plPath, sclPath} {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("format: %w", err)
		}
		defer f.Close()
		files[i] = member{filepath.Base(path), f}
	}
	return load(name, files[0], files[1], files[2], files[3])
}

// load parses a Bookshelf set from its four member files.
func load(name string, nodesF, netsF, plF, sclF member) (*Design, *layout.Placement, error) {
	nodes, nodeIdx, err := parseNodes(nodesF)
	if err != nil {
		return nil, nil, err
	}
	nets, err := parseNets(netsF, nodeIdx)
	if err != nil {
		return nil, nil, err
	}
	rows, err := parseSCL(sclF)
	if err != nil {
		return nil, nil, err
	}
	plX, plY, err := parsePl(plF, nodeIdx)
	if err != nil {
		return nil, nil, err
	}
	d, err := buildDesign(name, nodes, nets, rows, plX, plY)
	if err != nil {
		return nil, nil, err
	}
	place, err := d.initialPlacement(plX, plY)
	if err != nil {
		return nil, nil, err
	}
	return d, place, nil
}

// scanLines feeds fn the fields of each line of m, skipping blank lines,
// comments and the "UCLA" header.
func scanLines(m member, fn func(fields []string) error) error {
	sc := bufio.NewScanner(m.r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") {
			continue
		}
		if err := fn(strings.Fields(line)); err != nil {
			return fmt.Errorf("format: %s:%d: %w", m.name, lineNo, err)
		}
	}
	return sc.Err()
}

func parseNodes(m member) ([]bookshelfNode, map[string]int, error) {
	var nodes []bookshelfNode
	idx := make(map[string]int)
	err := scanLines(m, func(f []string) error {
		if len(f) >= 3 && f[0] == "NumNodes" || len(f) >= 3 && f[0] == "NumTerminals" {
			return nil // declared counts are advisory; the entries are authoritative
		}
		if len(f) < 3 {
			return fmt.Errorf("short node line %q", strings.Join(f, " "))
		}
		w, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("node %s: bad width %q", f[0], f[1])
		}
		if _, dup := idx[f[0]]; dup {
			return fmt.Errorf("duplicate node %q", f[0])
		}
		term := len(f) >= 4 && strings.EqualFold(f[3], "terminal")
		idx[f[0]] = len(nodes)
		nodes = append(nodes, bookshelfNode{name: f[0], width: w, terminal: term})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("format: %s declares no nodes", m.name)
	}
	return nodes, idx, nil
}

func parseNets(m member, nodeIdx map[string]int) ([]bookshelfNet, error) {
	var nets []bookshelfNet
	var cur *bookshelfNet
	err := scanLines(m, func(f []string) error {
		switch f[0] {
		case "NumNets", "NumPins":
			return nil
		case "NetDegree":
			// "NetDegree : d  name" — the name is optional in the wild.
			name := fmt.Sprintf("n%d", len(nets))
			if len(f) >= 4 {
				name = f[3]
			}
			nets = append(nets, bookshelfNet{name: name})
			cur = &nets[len(nets)-1]
			return nil
		}
		if cur == nil {
			return fmt.Errorf("pin line %q before any NetDegree", strings.Join(f, " "))
		}
		ni, ok := nodeIdx[f[0]]
		if !ok {
			return fmt.Errorf("net %s: unknown node %q", cur.name, f[0])
		}
		out := len(f) >= 2 && (f[1] == "O" || f[1] == "B")
		cur.pins = append(cur.pins, bookshelfPin{node: ni, out: out})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(nets) == 0 {
		return nil, fmt.Errorf("format: %s declares no nets", m.name)
	}
	return nets, nil
}

func parseSCL(m member) ([]Row, error) {
	var rows []Row
	var cur *Row
	err := scanLines(m, func(f []string) error {
		switch f[0] {
		case "CoreRow":
			rows = append(rows, Row{SiteWidth: 1, Height: 1})
			cur = &rows[len(rows)-1]
		case "End":
			cur = nil
		case "Coordinate":
			if cur != nil && len(f) >= 3 {
				cur.Coordinate, _ = strconv.ParseFloat(f[2], 64)
			}
		case "Height":
			if cur != nil && len(f) >= 3 {
				cur.Height, _ = strconv.ParseFloat(f[2], 64)
			}
		case "Sitewidth":
			if cur != nil && len(f) >= 3 {
				cur.SiteWidth, _ = strconv.ParseFloat(f[2], 64)
			}
		case "SubrowOrigin":
			if cur != nil && len(f) >= 3 {
				cur.SubrowOrigin, _ = strconv.ParseFloat(f[2], 64)
				// "SubrowOrigin : x  NumSites : n" shares the line.
				if len(f) >= 6 && f[3] == "NumSites" {
					cur.NumSites, _ = strconv.Atoi(f[5])
				}
			}
		case "NumSites":
			if cur != nil && len(f) >= 3 {
				cur.NumSites, _ = strconv.Atoi(f[2])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("format: %s declares no core rows", m.name)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Coordinate < rows[j].Coordinate })
	for i := range rows {
		if rows[i].SiteWidth <= 0 {
			rows[i].SiteWidth = 1
		}
	}
	return rows, nil
}

func parsePl(m member, nodeIdx map[string]int) (x, y map[string]float64, err error) {
	x = make(map[string]float64, len(nodeIdx))
	y = make(map[string]float64, len(nodeIdx))
	err = scanLines(m, func(f []string) error {
		if len(f) < 3 {
			return nil // orientation-only or malformed trailer lines are ignored
		}
		if _, ok := nodeIdx[f[0]]; !ok {
			return fmt.Errorf("placement for unknown node %q", f[0])
		}
		px, err1 := strconv.ParseFloat(f[1], 64)
		py, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("node %s: bad coordinates %q %q", f[0], f[1], f[2])
		}
		x[f[0]], y[f[0]] = px, py
		return nil
	})
	return x, y, err
}

// maxNodeSites bounds a node's width in sites, so that the row widths,
// sums of node widths, cannot overflow.
const maxNodeSites = 1<<31 - 1

// buildDesign assembles the netlist.Circuit: driver assignment, terminal
// classification, and structural validation.
func buildDesign(name string, nodes []bookshelfNode, nets []bookshelfNet, rows []Row, plX, plY map[string]float64) (*Design, error) {
	siteW := rows[0].SiteWidth

	// Driver assignment: every net needs exactly one driving cell and
	// every cell drives at most one net (the single-output netlist model).
	// Two passes — explicit "O"/"B" pins claim their nets first, then the
	// leftovers take any still-free pin node. Multi-output nodes therefore
	// drive only their first net; the remaining connections degrade to
	// sink pins, which is lossless for placement (nets stay intact, only
	// the direction annotation coarsens).
	driverOf := make([]int, len(nets)) // net -> node index, -1 unassigned
	drives := make([]bool, len(nodes))
	for i := range driverOf {
		driverOf[i] = -1
	}
	for pass := 0; pass < 2; pass++ {
		for ni := range nets {
			if driverOf[ni] >= 0 {
				continue
			}
			for _, pin := range nets[ni].pins {
				if drives[pin.node] || (pass == 0 && !pin.out) {
					continue
				}
				driverOf[ni] = pin.node
				drives[pin.node] = true
				break
			}
		}
	}
	for ni := range nets {
		if driverOf[ni] < 0 {
			return nil, fmt.Errorf("format: net %q has no assignable driver (every pin node already drives another net)", nets[ni].name)
		}
	}

	// Per-node fan-in/fan-out counts for terminal classification.
	sinksOn := make([][]int, len(nodes)) // node -> nets it sinks
	for ni := range nets {
		seen := make(map[int]bool, len(nets[ni].pins))
		for _, pin := range nets[ni].pins {
			if pin.node == driverOf[ni] || seen[pin.node] {
				continue // self-loop pins on the driver and duplicate pins collapse
			}
			seen[pin.node] = true
			sinksOn[pin.node] = append(sinksOn[pin.node], ni)
		}
	}

	d := &Design{
		Rows:  rows,
		termX: make(map[netlist.CellID]float64),
		termY: make(map[netlist.CellID]float64),
		fixed: make(map[netlist.CellID]bool),
	}
	ckt := &netlist.Circuit{Name: name}
	ckt.Cells = make([]netlist.Cell, len(nodes))
	ckt.Nets = make([]netlist.Net, len(nets))

	for i, n := range nodes {
		id := netlist.CellID(i)
		typ := netlist.Macro
		sites := math.Round(n.width / siteW)
		if !(sites <= maxNodeSites) { // NaN fails too
			return nil, fmt.Errorf("format: node %q is %v sites wide, above %d", n.name, sites, maxNodeSites)
		}
		width := max(int(sites), 1)
		if n.terminal {
			// Pad-shaped terminals become real pads (width 0, fixed on
			// the boundary in the internal model); oddly-shaped ones stay
			// Macro so their connectivity survives, at the cost of being
			// treated as movable.
			switch {
			case drives[i] && len(sinksOn[i]) == 0:
				typ, width = netlist.Input, 0
			case !drives[i] && len(sinksOn[i]) == 1:
				typ, width = netlist.Output, 0
			}
			d.fixed[id] = true
			d.termX[id] = plX[n.name]
			d.termY[id] = plY[n.name]
		}
		ckt.Cells[i] = netlist.Cell{ID: id, Name: n.name, Type: typ, Width: width, Out: netlist.NoNet}
		switch typ {
		case netlist.Input:
			ckt.PIs = append(ckt.PIs, id)
		case netlist.Output:
			ckt.POs = append(ckt.POs, id)
		}
	}

	for ni := range nets {
		drv := netlist.CellID(driverOf[ni])
		ckt.Nets[ni] = netlist.Net{ID: netlist.NetID(ni), Name: nets[ni].name, Driver: drv}
		ckt.Cells[drv].Out = netlist.NetID(ni)
	}
	// Sink wiring from the deduplicated per-node lists keeps Cell.In and
	// Net.Sinks consistent.
	for node, list := range sinksOn {
		for _, ni := range list {
			ckt.Cells[node].In = append(ckt.Cells[node].In, netlist.NetID(ni))
			ckt.Nets[ni].Sinks = append(ckt.Nets[ni].Sinks, netlist.CellID(node))
		}
	}

	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("format: %s: %w", name, err)
	}
	d.Ckt = ckt
	return d, nil
}

// rowFor returns the index of the core row whose y span is nearest the
// given Bookshelf y coordinate.
func (d *Design) rowFor(y float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, r := range d.Rows {
		if dist := math.Abs(y - r.Coordinate); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// initialPlacement realizes the .pl coordinates on the internal row grid:
// each movable cell goes to the row nearest its y, rows order by ascending
// x (ties broken by node order for determinism), and fixed terminals map
// proportionally into the internal coordinate space via coordinate hints.
func (d *Design) initialPlacement(plX, plY map[string]float64) (*layout.Placement, error) {
	ckt := d.Ckt
	p := layout.New(ckt, len(d.Rows))

	type entry struct {
		id netlist.CellID
		x  float64
	}
	byRow := make([][]entry, len(d.Rows))
	for _, id := range ckt.Movable() {
		name := ckt.Cells[id].Name
		x, okX := plX[name]
		y, okY := plY[name]
		if !okX || !okY {
			return nil, fmt.Errorf("format: movable node %q has no .pl entry", name)
		}
		r := d.rowFor(y)
		byRow[r] = append(byRow[r], entry{id: id, x: x})
	}
	for r, list := range byRow {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].x != list[j].x {
				return list[i].x < list[j].x
			}
			return list[i].id < list[j].id
		})
		for _, e := range list {
			p.AppendToRow(r, e.id)
		}
	}
	p.Recompute()

	// Terminal hints: scale the Bookshelf frame into the internal one so
	// pads keep their relative geometry (wire costs then see pad pulls in
	// the right directions even though absolute units differ).
	r0 := d.Rows[0]
	siteW := r0.SiteWidth
	for id, fixed := range d.fixed {
		if !fixed || !ckt.Cells[id].IsPad() {
			continue
		}
		x := (d.termX[id] - r0.SubrowOrigin) / siteW
		y := (d.termY[id]-r0.Coordinate)/r0.Height*layout.RowPitch + layout.RowPitch/2
		p.SetCoordHint(id, x, y)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("format: initial placement: %w", err)
	}
	return p, nil
}

// WritePl emits the placement in Bookshelf .pl syntax: movable cells get
// their row's y and a left-edge x reconstructed from the site prefix sums;
// fixed terminals are echoed verbatim with the /FIXED marker. Output is
// deterministic (.nodes file order) and reaches a fixed point after one
// parse→write cycle.
func (d *Design) WritePl(w io.Writer, p *layout.Placement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "UCLA pl 1.0\n# simevo placement for %s\n\n", d.Ckt.Name)

	// Left-edge x per movable cell from integer site offsets.
	type pos struct{ x, y float64 }
	coords := make(map[netlist.CellID]pos, d.Ckt.NumMovable())
	for r := 0; r < p.NumRows(); r++ {
		row := d.Rows[r]
		xoff := 0
		for _, id := range p.Row(r) {
			if id == netlist.NoCell {
				continue
			}
			coords[id] = pos{
				x: row.SubrowOrigin + float64(xoff)*row.SiteWidth,
				y: row.Coordinate,
			}
			xoff += d.Ckt.Cells[id].Width
		}
	}

	for i := range d.Ckt.Cells {
		cell := &d.Ckt.Cells[i]
		id := netlist.CellID(i)
		if d.fixed[id] {
			fmt.Fprintf(bw, "%s\t%s\t%s\t: N /FIXED\n",
				cell.Name, fmtCoord(d.termX[id]), fmtCoord(d.termY[id]))
			continue
		}
		c, ok := coords[id]
		if !ok {
			return fmt.Errorf("format: movable cell %q is unplaced", cell.Name)
		}
		fmt.Fprintf(bw, "%s\t%s\t%s\t: N\n", cell.Name, fmtCoord(c.x), fmtCoord(c.y))
	}
	return bw.Flush()
}

// fmtCoord renders a coordinate with the shortest exact decimal float
// representation — stable across write→parse→write cycles.
func fmtCoord(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

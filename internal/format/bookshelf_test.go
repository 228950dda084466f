package format

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simevo/internal/core"
	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

func loadFixture(t testing.TB) (*Design, *layout.Placement) {
	t.Helper()
	d, p, err := LoadAux(filepath.Join("testdata", "tiny.aux"))
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestBookshelfLoadFixture(t *testing.T) {
	d, p := loadFixture(t)
	ckt := d.Ckt

	if got, want := ckt.NumCells(), 16; got != want {
		t.Errorf("cells = %d, want %d", got, want)
	}
	if got, want := ckt.NumNets(), 14; got != want {
		t.Errorf("nets = %d, want %d", got, want)
	}
	if got, want := ckt.NumMovable(), 12; got != want {
		t.Errorf("movable = %d, want %d", got, want)
	}
	if got, want := len(ckt.PIs), 2; got != want {
		t.Errorf("PIs = %d, want %d (p1, p2 drive and sink nothing)", got, want)
	}
	if got, want := len(ckt.POs), 2; got != want {
		t.Errorf("POs = %d, want %d (p3, p4 sink exactly one net)", got, want)
	}
	if got, want := d.NumRows(), 4; got != want {
		t.Errorf("rows = %d, want %d", got, want)
	}
	for _, id := range ckt.Movable() {
		if ckt.Cells[id].Type != netlist.Macro {
			t.Errorf("movable %q has type %v, want MACRO", ckt.Cells[id].Name, ckt.Cells[id].Type)
		}
	}
	if err := ckt.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The .pl row assignment: a,b,c in row 0 in x order.
	want := []string{"a", "b", "c"}
	row := p.Row(0)
	if len(row) != len(want) {
		t.Fatalf("row 0 has %d cells, want %d", len(row), len(want))
	}
	for i, id := range row {
		if ckt.Cells[id].Name != want[i] {
			t.Errorf("row 0 slot %d = %q, want %q", i, ckt.Cells[id].Name, want[i])
		}
	}
	// Width conversion: Sitewidth 6, node a is 12 units -> 2 sites.
	if w := ckt.Cells[row[0]].Width; w != 2 {
		t.Errorf("cell a width = %d sites, want 2", w)
	}
}

func TestBookshelfWritePlGolden(t *testing.T) {
	d, p := loadFixture(t)
	var buf bytes.Buffer
	if err := d.WritePl(&buf, p); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "tiny.golden.pl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("WritePl output deviates from testdata/tiny.golden.pl:\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), golden)
	}
}

// TestBookshelfRoundTripFixedPoint verifies the parse→write cycle
// converges immediately: writing the loaded placement, re-ingesting the
// written .pl with the original .nodes/.nets/.scl, and writing again must
// produce byte-identical output.
func TestBookshelfRoundTripFixedPoint(t *testing.T) {
	d, p := loadFixture(t)
	var first bytes.Buffer
	if err := d.WritePl(&first, p); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, f := range []string{"tiny.aux", "tiny.nodes", "tiny.nets", "tiny.scl"} {
		blob, err := os.ReadFile(filepath.Join("testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "tiny.pl"), first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, p2, err := LoadAux(filepath.Join(dir, "tiny.aux"))
	if err != nil {
		t.Fatalf("re-ingesting written .pl: %v", err)
	}
	var second bytes.Buffer
	if err := d2.WritePl(&second, p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write→parse→write is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
			first.Bytes(), second.Bytes())
	}
}

// TestBookshelfIngestionSmoke is the CI ingestion gate: a Bookshelf
// design must load, run a few SimE iterations with the congestion
// objective active, and surface congestion telemetry.
func TestBookshelfIngestionSmoke(t *testing.T) {
	d, p := loadFixture(t)
	cfg := core.DefaultConfig(fuzzy.WirePowerCongest)
	cfg.MaxIters = 5
	cfg.Seed = 8
	cfg.NumRows = d.NumRows()
	prob, err := core.NewProblem(d.Ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := prob.EngineFrom(p, rng.New(cfg.Seed))
	res := eng.Run()
	if res.Iters != 5 {
		t.Fatalf("ran %d iterations, want 5", res.Iters)
	}
	if res.BestCosts.Wire <= 0 {
		t.Errorf("wire cost = %v, want > 0", res.BestCosts.Wire)
	}
	tel := eng.Telemetry()
	if tel.CongestBinUpdates == 0 {
		t.Error("telemetry: congestion grid recorded no bin updates")
	}
	if tel.CongestRebuilds != tel.Evals {
		t.Errorf("telemetry: %d congestion-grid rebuilds over %d evaluations, want one each",
			tel.CongestRebuilds, tel.Evals)
	}
}

// FuzzBookshelf feeds arbitrary .nodes, .nets, .pl and .scl bodies to the
// readers. They must never panic, and a design they accept must build a
// core.Problem and run a SimE iteration from the file's placement.
func FuzzBookshelf(f *testing.F) {
	read := func(name string) string {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		return string(blob)
	}
	nodes, nets, pl, scl := read("tiny.nodes"), read("tiny.nets"), read("tiny.pl"), read("tiny.scl")
	f.Add(nodes, nets, pl, scl)
	f.Add("a 1 1\nb 1 1\n", "NetDegree : 2 n\na O\nb I\n", "a 0 0\nb 5 0\n", "CoreRow\nCoordinate : 0\nHeight : 1\nEnd\n")
	f.Add("a 1 1\np 0 0 terminal\n", "NetDegree : 2\np O\na I\n", "a 1 1\np 0 0 : N /FIXED\n", "CoreRow\nEnd\nCoreRow\nCoordinate : 9\nEnd\n")
	f.Fuzz(func(t *testing.T, nodes, nets, pl, scl string) {
		d, p, err := load("fuzz",
			member{"fuzz.nodes", strings.NewReader(nodes)},
			member{"fuzz.nets", strings.NewReader(nets)},
			member{"fuzz.pl", strings.NewReader(pl)},
			member{"fuzz.scl", strings.NewReader(scl)})
		if err != nil {
			return
		}
		cfg := core.DefaultConfig(fuzzy.WirePowerCongest)
		cfg.MaxIters = 1
		cfg.NumRows = d.NumRows()
		prob, err := core.NewProblem(d.Ckt, cfg)
		if err != nil {
			t.Fatalf("accepted design builds no problem: %v", err)
		}
		prob.EngineFrom(p, rng.New(1)).Step()
	})
}

// TestBookshelfAuxRejects covers the .aux files LoadAux refuses: one over
// the size bound, one naming a member kind twice, one missing a kind.
func TestBookshelfAuxRejects(t *testing.T) {
	dir := t.TempDir()
	const names = "RowBasedPlacement : tiny.nodes tiny.nets tiny.pl tiny.scl"
	for _, tc := range []struct{ name, text, want string }{
		{"big.aux", names + strings.Repeat(" ", maxAuxBytes), "larger than"},
		{"twice.aux", names + " other.pl", "names two .pl files"},
		{"short.aux", "RowBasedPlacement : tiny.nodes tiny.nets tiny.pl", "names no .scl file"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadAux(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzBookshelfAux feeds arbitrary text to the .aux parser: it must not
// panic, and a file it accepts names exactly one member of each kind
// after its colon, the one it returns.
func FuzzBookshelfAux(f *testing.F) {
	blob, err := os.ReadFile(filepath.Join("testdata", "tiny.aux"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte("a.nodes a.nets a.wts a.pl a.scl"))
	f.Add([]byte("RowBasedPlacement : a.nodes a.nets a.pl a.scl a.pl"))
	f.Add([]byte("x.nodes : .nodes .nets .pl .scl\n"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		files, err := parseAux(blob)
		if err != nil {
			return
		}
		text := string(blob)
		if i := strings.Index(text, ":"); i >= 0 {
			text = text[i+1:]
		}
		for _, m := range []struct{ ext, name string }{
			{".nodes", files.nodes}, {".nets", files.nets}, {".pl", files.pl}, {".scl", files.scl},
		} {
			var named []string
			for _, f := range strings.Fields(text) {
				if filepath.Ext(f) == m.ext {
					named = append(named, f)
				}
			}
			if len(named) != 1 || named[0] != m.name {
				t.Fatalf("accepted %q: %s files %q, parser returned %q", blob, m.ext, named, m.name)
			}
		}
	})
}

package layout

import (
	"bytes"
	"strings"
	"testing"

	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/rng"
)

// encodeRows builds a full-placement encoding from explicit rows.
func encodeRows(rows ...[]netlist.CellID) []byte {
	buf := appendI32(nil, int32(len(rows)))
	for _, row := range rows {
		buf = appendI32(buf, int32(len(row)))
		for _, id := range row {
			buf = appendI32(buf, int32(id))
		}
	}
	return buf
}

func TestValidateDoesNotAllocate(t *testing.T) {
	ckt := testCircuit(t)
	p := NewRandom(ckt, 10, rng.New(3))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = p.Validate() }); n != 0 {
		t.Fatalf("Validate allocated %.0f times per call", n)
	}
}

func TestDecodeRejectsInvalidPlacements(t *testing.T) {
	ckt := testCircuit(t)
	mov := ckt.Movable()
	var pad netlist.CellID = -1
	for id := range ckt.Cells {
		if ckt.Cells[id].IsPad() {
			pad = netlist.CellID(id)
			break
		}
	}
	if pad < 0 {
		t.Fatal("test circuit has no pad")
	}
	half := len(mov) / 2
	rest := append([]netlist.CellID(nil), mov[half:]...)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"duplicate", encodeRows(mov[:half], append(rest, mov[0])), "placed at both"},
		{"unplaced", encodeRows(mov[:half], rest[1:]), "unplaced"},
		{"pad", encodeRows(mov[:half], append(rest, pad)), "pad"},
		{"row count", append(appendI32(nil, 1<<20), make([]byte, 64)...), "row count"},
	} {
		_, err := DecodePlacement(ckt, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodePlacement(ckt, encodeRows(mov[:half], rest)); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
}

// FuzzDecodePlacement feeds arbitrary bytes to the full-placement decoder,
// the format remote ranks send. Decoding must not panic, whatever it
// accepts must be a valid placement, and re-encoding it must reproduce the
// bytes it consumed.
func FuzzDecodePlacement(f *testing.F) {
	ckt, err := gen.Generate(gen.Params{Name: "fz", Gates: 10, DFFs: 1, PIs: 2, POs: 2, Depth: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		data := NewRandom(ckt, int(seed)+1, rng.New(seed)).Encode()
		f.Add(data)
		f.Add(append(data, 1, 2, 3))
		f.Add(data[:len(data)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := DecodePlacementPrefix(ckt, data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid placement: %v", err)
		}
		used := data[:len(data)-len(rest)]
		if enc := p.Encode(); !bytes.Equal(enc, used) {
			t.Fatalf("re-encoding gives %x, decoded from %x", enc, used)
		}
		q, err := DecodePlacement(ckt, p.Encode())
		if err != nil || q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

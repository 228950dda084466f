package stats

import (
	"strings"
	"testing"
	"time"
)

func TestSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{250 * time.Second, "250"},
		{42500 * time.Millisecond, "42.5"},
		{1250 * time.Millisecond, "1.25"},
		{0, "0.00"},
	}
	for _, tc := range cases {
		if got := Seconds(tc.d); got != tc.want {
			t.Errorf("Seconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestQualityPercent(t *testing.T) {
	if got := QualityPercent(0.47, 0.50); got != 94 {
		t.Fatalf("QualityPercent = %d, want 94", got)
	}
	if got := QualityPercent(0.6, 0.5); got != 100 {
		t.Fatalf("over-achievement should cap at 100, got %d", got)
	}
	if got := QualityPercent(0.5, 0); got != 100 {
		t.Fatalf("zero target should give 100, got %d", got)
	}
	if got := QualityPercent(-1, 0.5); got != 0 {
		t.Fatalf("negative achieved should floor at 0, got %d", got)
	}
}

func TestTimeCell(t *testing.T) {
	if got := TimeCell(45*time.Second, true, 0.7, 0.7); got != "45.0" {
		t.Fatalf("reached cell = %q", got)
	}
	got := TimeCell(45*time.Second, false, 0.65, 0.70)
	if got != "45.0 (92)" {
		t.Fatalf("unreached cell = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X. Test", "Ckt", "Seq", "p=2")
	tb.AddRow("s1196", "92", "130")
	tb.AddRow("s3330", "3750", "5480")
	tb.AddComment("runtimes in seconds")
	out := tb.String()

	for _, want := range []string{"Table X. Test", "Ckt", "s1196", "5480", "# runtimes in seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "---") {
		t.Fatal("missing separator line")
	}
	// Columns aligned: "s1196" and "s3330" start at column 0; the second
	// column starts at the same offset in both rows.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "s") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 data rows, got %d", len(rows))
	}
	if strings.Index(rows[0], "92") != strings.Index(rows[1], "3750") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Fatalf("short row dropped:\n%s", out)
	}
}

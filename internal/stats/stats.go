// Package stats renders experiment results as text tables matching the
// layout of the paper's Tables 1-4, and provides the quality percentage the
// harness reports.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Seconds formats a duration as the paper's whole-second runtime entries,
// with sub-second resolution below 10 s so scaled-down runs stay readable.
func Seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.2f", s)
	}
}

// QualityPercent returns achieved/target as a percentage capped at 100,
// mirroring the paper's bracketed quality annotations.
func QualityPercent(achieved, target float64) int {
	if target <= 0 {
		return 100
	}
	pct := int(achieved / target * 100)
	if pct > 100 {
		pct = 100
	}
	if pct < 0 {
		pct = 0
	}
	return pct
}

// TimeCell renders a parallel runtime entry as the paper's tables do: the
// plain time when the serial quality was reached, otherwise the time with
// the achieved quality percentage in brackets.
func TimeCell(t time.Duration, reached bool, achievedMu, targetMu float64) string {
	if reached {
		return Seconds(t)
	}
	return fmt.Sprintf("%s (%d)", Seconds(t), QualityPercent(achievedMu, targetMu))
}

// Table accumulates rows and renders with aligned columns.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	comment []string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddComment appends a footnote line rendered after the table body.
func (t *Table) AddComment(format string, args ...any) {
	t.comment = append(t.comment, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	for _, c := range t.comment {
		fmt.Fprintf(&b, "# %s\n", c)
	}
	return b.String()
}

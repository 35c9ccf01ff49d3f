// Package report renders the experiment results in the layout of the
// paper's tables, plus TSV series for the figures.
package report

import (
	"fmt"
	"strings"

	"realsum/internal/sim"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned text form.  Width sizing spans the longest
// row, not just the header count, so a row with surplus cells renders
// aligned instead of panicking mid-write.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Percent renders a fraction as the paper's percentage style.
func Percent(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x < 0.00001:
		return fmt.Sprintf("%.7f%%", 100*x)
	case x < 0.001:
		return fmt.Sprintf("%.5f%%", 100*x)
	default:
		return fmt.Sprintf("%.3f%%", 100*x)
	}
}

// RatePercent renders a rate that may be unknown: Percent(rate), or "-"
// when ok is false because the rate had no base to be taken over.
func RatePercent(rate float64, ok bool) string {
	if !ok {
		return "-"
	}
	return Percent(rate)
}

// Count renders an integer with thousands separators, as the paper's
// tables do.
func Count(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
		if len(s) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}

// SpliceTable renders one system's splice results in the row layout of
// Tables 1–3: Total / Caught by Header / Identical data / Remaining /
// Missed by CRC / Missed by TCP, with percentages of Remaining.
func SpliceTable(results []sim.Result, checksumName string) string {
	t := Table{
		Headers: []string{"system", "", "code", "% remaining splices"},
	}
	for _, r := range results {
		t.AddRow(r.System, "Total", Count(r.Total), "")
		t.AddRow(fmt.Sprintf("%d files", r.Files), "Caught by Header", Count(r.CaughtByHeader), "")
		t.AddRow(fmt.Sprintf("%s pkts", Count(r.Packets)), "Identical data", Count(r.Identical), "")
		t.AddRow("", "Remaining splices", Count(r.Remaining), "(100%)")
		t.AddRow("", "Missed by CRC", Count(r.MissedByCRC), RatePercent(r.MissRate(r.MissedByCRC)))
		t.AddRow("", "Missed by "+checksumName, Count(r.MissedByChecksum), RatePercent(r.MissRate(r.MissedByChecksum)))
		t.AddRow("", "", "", "")
	}
	return t.Render()
}

// Series is a named sequence of (x, y) points for the figure outputs.
type Series struct {
	Name string
	Y    []float64
}

// TSV renders one or more series as tab-separated columns with an index
// column, truncated to the shortest series unless pad is true (missing
// values render empty).
func TSV(series []Series, maxRows int) string {
	var b strings.Builder
	b.WriteString("i")
	rows := 0
	for _, s := range series {
		fmt.Fprintf(&b, "\t%s", s.Name)
		if len(s.Y) > rows {
			rows = len(s.Y)
		}
	}
	b.WriteByte('\n')
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d", i)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "\t%.6g", s.Y[i])
			} else {
				b.WriteByte('\t')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package report

import (
	"strings"
	"testing"

	"realsum/internal/sim"
	"realsum/internal/splice"
)

func TestTableRenderAlignment(t *testing.T) {
	tbl := Table{
		Title:   "Demo",
		Headers: []string{"a", "long-header", "c"},
	}
	tbl.AddRow("x", "1", "2")
	tbl.AddRow("longer-cell", "3", "4")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a ") || !strings.Contains(lines[1], "long-header") {
		t.Errorf("header line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("rule line: %q", lines[2])
	}
}

func TestTableRenderRowsWiderThanHeaders(t *testing.T) {
	// Rows may carry more cells than there are headers (the dynamic
	// per-algorithm tables do this); Render must pad widths to the
	// longest row rather than panic or truncate.
	tbl := Table{Headers: []string{"sys"}}
	tbl.AddRow("a", "1", "22")
	tbl.AddRow("bb", "333", "4")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "1") || !strings.Contains(lines[2], "22") {
		t.Errorf("row cells beyond headers dropped: %q", lines[2])
	}
	// Columns align: every "333" sits under its own column start.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not padded to equal width:\n%q\n%q", lines[2], lines[3])
	}
}

func TestPercent(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "50.000%"},
		{0.0001, "0.01000%"},
		{0.0000001, "0.0000100%"},
	}
	for _, tc := range tests {
		if got := Percent(tc.in); got != tc.want {
			t.Errorf("Percent(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCount(t *testing.T) {
	tests := []struct {
		in   uint64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{1234567, "1,234,567"},
		{100000, "100,000"},
	}
	for _, tc := range tests {
		if got := Count(tc.in); got != tc.want {
			t.Errorf("Count(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSpliceTable(t *testing.T) {
	r := sim.Result{
		System:  "sics.se:/opt",
		Files:   10,
		Packets: 1234,
	}
	r.Counts = splice.Counts{
		Total: 100000, CaughtByHeader: 60000, Identical: 1000,
		Remaining: 39000, MissedByCRC: 1, MissedByChecksum: 42,
	}
	out := SpliceTable([]sim.Result{r}, "TCP")
	for _, want := range []string{"sics.se:/opt", "Caught by Header", "Identical data", "Missed by CRC", "Missed by TCP", "100,000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestSpliceTableUnknownRate pins the honest-rate rule: a system with no
// remaining splices has no miss rate, so both rate cells read "-", never
// "0" or "0.00%".
func TestSpliceTableUnknownRate(t *testing.T) {
	r := sim.Result{System: "empty"}
	r.Counts = splice.Counts{Total: 5, CaughtByHeader: 5}
	out := SpliceTable([]sim.Result{r}, "TCP")
	for _, label := range []string{"Missed by CRC", "Missed by TCP"} {
		var row string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, label) {
				row = line
			}
		}
		fields := strings.Fields(row)
		if len(fields) == 0 || fields[len(fields)-1] != "-" {
			t.Errorf("%s row = %q, want its rate cell to be \"-\"", label, row)
		}
	}
	if got := RatePercent(0.5, true); got != Percent(0.5) {
		t.Errorf("RatePercent(0.5, true) = %q, want %q", got, Percent(0.5))
	}
}

func TestTSV(t *testing.T) {
	out := TSV([]Series{
		{Name: "a", Y: []float64{1, 2, 3}},
		{Name: "b", Y: []float64{10, 20}},
	}, 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "i\ta\tb" {
		t.Errorf("header: %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows: %d", len(lines))
	}
	if lines[3] != "2\t3\t" {
		t.Errorf("padded row: %q", lines[3])
	}
	capped := TSV([]Series{{Name: "a", Y: []float64{1, 2, 3, 4, 5}}}, 2)
	if got := len(strings.Split(strings.TrimRight(capped, "\n"), "\n")); got != 3 {
		t.Errorf("maxRows not applied: %d lines", got)
	}
}

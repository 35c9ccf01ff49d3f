package census

import (
	"fmt"
	"strings"

	"realsum/internal/report"
)

// Report renders the census: the analytic-lane table, the measured
// error mix, the injection-lane table with all three rankings, and the
// pin lines ci.sh greps — one census[...] line per candidate, one for
// the mix, one verdict line for the uniform-vs-corpus comparison.
func (r *Result) Report() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf(
		"polynomial census: %d candidates, analytic lane at %d bits (BSC p=%g), injection over %s\n\n",
		len(r.Rows), BlockBits, BSCFlipP, strings.Join(Channels(), ",")))

	at := report.Table{
		Title: "census: analytic lane (gf2poly algebra, uniform assumption)",
		Headers: []string{"candidate", "w", "poly", "ord(x)", "odd", "irred",
			"A2", "A3", "P_ud uniform", "P_ud BSC"},
	}
	for _, row := range r.Rows {
		ord := "-"
		if row.Ord != 0 {
			ord = fmt.Sprintf("%d", row.Ord)
		}
		at.AddRow(row.Key, fmt.Sprintf("%d", row.Params.Width),
			fmt.Sprintf("%#x", row.Params.Poly), ord,
			yesNo(row.OddAll), yesNo(row.Irreducible),
			report.Count(row.A2), report.Count(row.A3),
			fmt.Sprintf("%.3g", row.UniformP), fmt.Sprintf("%.3g", row.BSCP))
	}
	b.WriteString(at.Render())
	b.WriteByte('\n')

	b.WriteString(fmt.Sprintf("measured error mix (%s corrupted deliveries): %s\n\n",
		report.Count(r.Mix.Total()), r.Mix.Line()))

	it := report.Table{
		Title: "census: injection lane (netsim fault battery, measured corpus) vs rankings",
		Headers: []string{"candidate", "corrupted", "detected", "undetected",
			"miss rate", "P_ud measured-mix", "rank uni", "rank mix", "rank inj"},
	}
	for _, row := range r.Rows {
		it.AddRow(row.Key, report.Count(row.Corrupted), report.Count(row.Detected),
			report.Count(row.Undetected), missCell(row),
			fmt.Sprintf("%.3g", row.MeasuredP),
			fmt.Sprintf("%d", row.UniformRank), fmt.Sprintf("%d", row.MeasuredRank),
			fmt.Sprintf("%d", row.InjectedRank))
	}
	b.WriteString(it.Render())
	b.WriteByte('\n')

	for _, line := range r.PinLines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// PinLines renders the greppable census[...] lines: the measured mix,
// one line per candidate with both lanes' raw numbers, and the
// inversion verdict.
func (r *Result) PinLines() []string {
	out := make([]string, 0, len(r.Rows)+2)
	out = append(out, fmt.Sprintf("census[mix]: total=%d %s", r.Mix.Total(), r.Mix.Line()))
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf(
			"census[%s]: w=%d a2=%d a3=%d ord=%d uniform=%.3g bsc=%.3g measured=%.3g miss=%d/%d ranks=%d/%d/%d",
			row.Key, row.Params.Width, row.A2, row.A3, row.Ord,
			row.UniformP, row.BSCP, row.MeasuredP,
			row.Undetected, row.Detected+row.Undetected,
			row.UniformRank, row.MeasuredRank, row.InjectedRank))
	}
	out = append(out, r.inversionLine())
	return out
}

// inversionLine is the acceptance verdict: the most extreme
// uniform-vs-corpus ranking flip called out explicitly, or the explicit
// statement that none occurred.
func (r *Result) inversionLine() string {
	if len(r.Inversions) == 0 {
		return "census[inversion]: none - the uniform-assumption ranking survived the measured corpus distributions"
	}
	return fmt.Sprintf("census[inversion]: %d ranking flips; most extreme: %s",
		len(r.Inversions), r.Inversions[0])
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func missCell(row Row) string {
	return report.RatePercent(row.MissRate())
}

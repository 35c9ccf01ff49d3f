package experiments

import (
	"fmt"
	"math"
	"strings"

	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/stats"
	"realsum/internal/tcpip"
)

// table6Systems are the four file systems Table 6 compares.
func table6Systems() []corpus.Profile {
	return []corpus.Profile{
		corpus.StanfordU1(), corpus.SICSOpt(), corpus.SICSSrc(1), corpus.SICSSrc(2),
	}
}

// Table6System holds one system's predicted-vs-actual comparison for
// substitution lengths k = 1..4.
type Table6System struct {
	System string
	K      []int
	// PredictedGlobal is the i.i.d. global model (Table 4's column).
	PredictedGlobal []float64
	// MeasuredGlobal is the measured global congruence.
	MeasuredGlobal []float64
	// LocalCongruent and ExcludeIdentical restrict to the 512-byte
	// window.
	LocalCongruent   []float64
	ExcludeIdentical []float64
	// Corrected applies the §5.4 cell-colouring factor
	// C(n−2,k−1)/C(n−1,k−1) = (n−k)/(n−1) for n = 7.
	Corrected []float64
	// Actual is the splice simulation's per-length miss rate; ActualOK
	// is false where no splice of that length remained, so the rate is
	// unknown.
	Actual   []float64
	ActualOK []bool
}

// Table6 runs the full predicted-vs-actual comparison.
func Table6(cfg Config) []Table6System {
	var out []Table6System
	for _, p := range table6Systems() {
		fs := cfg.build(p)

		single, err := sim.CollectGlobal(cfg.ctx(), fs, 1, cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		p1 := dist.FromHistogram(single.Histogram())
		pk := p1

		res, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name, cfg.simOptions(sim.Options{}))
		if err != nil {
			panic(err)
		}

		sys := Table6System{System: p.Name}
		const n = 7 // cells per 256-byte packet
		for k := 1; k <= 4; k++ {
			g, err := sim.CollectGlobal(cfg.ctx(), fs, k, cfg.collectOptions())
			if err != nil {
				panic(err)
			}
			loc, err := sim.CollectLocal(cfg.ctx(), fs, k, 512, cfg.collectOptions())
			if err != nil {
				panic(err)
			}
			excl := loc.ExcludeIdenticalP()
			factor := float64(n-k) / float64(n-1)
			var actual float64
			actualOK := res.RemainingByLen[k] > 0
			if actualOK {
				actual = float64(res.MissedByLen[k]) / float64(res.RemainingByLen[k])
			}
			sys.K = append(sys.K, k)
			sys.PredictedGlobal = append(sys.PredictedGlobal, pk.SelfMatch())
			sys.MeasuredGlobal = append(sys.MeasuredGlobal, g.CongruentProbability())
			sys.LocalCongruent = append(sys.LocalCongruent, loc.CongruentP())
			sys.ExcludeIdentical = append(sys.ExcludeIdentical, excl)
			sys.Corrected = append(sys.Corrected, excl*factor)
			sys.Actual = append(sys.Actual, actual)
			sys.ActualOK = append(sys.ActualOK, actualOK)
			if k < 4 {
				pk = cfg.convolve(pk, p1)
			}
		}
		out = append(out, sys)
	}
	return out
}

// Table6Report renders Table 6.
func Table6Report(systems []Table6System) string {
	var b strings.Builder
	b.WriteString("Table 6: Checksum failures on real data — probability (%) of congruence for k-cell blocks\n")
	for _, s := range systems {
		t := report.Table{
			Title:   s.System,
			Headers: []string{"k", "Predicted", "Meas.Global", "Local Congruence", "Exclude Identical", "Corrected (§5.4)", "Actual"},
		}
		for i, k := range s.K {
			t.AddRow(fmt.Sprintf("%d", k),
				report.Percent(s.PredictedGlobal[i]),
				report.Percent(s.MeasuredGlobal[i]),
				report.Percent(s.LocalCongruent[i]),
				report.Percent(s.ExcludeIdentical[i]),
				report.Percent(s.Corrected[i]),
				report.RatePercent(s.Actual[i], s.ActualOK[i]))
		}
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// Table7 reproduces the compression experiment: the /opt system before
// and after LZW compression.
func Table7(cfg Config) (plain, compressed sim.Result) {
	p := corpus.SICSOpt()
	opt := cfg.simOptions(sim.Options{CheckCRC: true})
	var err error
	plain, err = sim.Run(cfg.ctx(), cfg.build(p), p.Name, opt)
	if err != nil {
		panic(err)
	}
	opt.Compress = true
	compressed, err = sim.Run(cfg.ctx(), cfg.build(p), p.Name+" compressed", opt)
	if err != nil {
		panic(err)
	}
	return plain, compressed
}

// Table7Report renders Table 7 with the uniform expectation alongside.
func Table7Report(plain, compressed sim.Result) string {
	t := report.Table{
		Title:   "Table 7: CRC and TCP Checksum Results, Compressed Data (256-byte packets)",
		Headers: []string{"system", "Remaining", "Missed by TCP", "rate", "uniform expectation"},
	}
	for _, r := range []sim.Result{plain, compressed} {
		t.AddRow(r.System, report.Count(r.Remaining),
			report.Count(r.MissedByChecksum),
			report.RatePercent(r.MissRate(r.MissedByChecksum)),
			report.Percent(stats.UniformMissRate(16)))
	}
	return t.Render()
}

// table8Systems are the five systems Table 8 and Table 9 compare.
func table8Systems() []corpus.Profile {
	return []corpus.Profile{
		corpus.SICSOpt(), corpus.StanfordU1(), corpus.StanfordUsrLocal(),
		corpus.SICSSrc(1), corpus.SICSSrc(2),
	}
}

// packetAlgos lists the algo-registry names the packet builder can
// carry end-to-end, in table order.  Table 8 and the §5.5 pathological
// comparison iterate this list and dispatch through the registry plus
// tcpip.AlgByName — there is no per-algorithm switch anywhere in the
// experiment layer.
var packetAlgos = []string{"tcp", "f255", "f256"}

// AlgResult is one algorithm's splice-simulation outcome inside a
// multi-algorithm comparison row.
type AlgResult struct {
	// Algo is the internal/algo registry name.
	Algo string
	// Label is the packet builder's display name ("TCP", "F-255", ...).
	Label string
	Res   sim.Result
}

// Table8Row is one system's registry-driven checksum comparison.
type Table8Row struct {
	System  string
	Results []AlgResult
}

// runPacketAlgos simulates one profile under every packetAlgos entry.
func runPacketAlgos(cfg Config, p corpus.Profile) []AlgResult {
	var out []AlgResult
	for _, name := range packetAlgos {
		alg, ok := tcpip.AlgByName(name)
		if !ok {
			panic(fmt.Sprintf("experiments: packet builder cannot carry %q", name))
		}
		res, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
			cfg.simOptions(sim.Options{Build: tcpip.BuildOptions{Alg: alg}}))
		if err != nil {
			panic(err)
		}
		out = append(out, AlgResult{Algo: name, Label: alg.String(), Res: res})
	}
	return out
}

// Table8 runs the Fletcher comparison.
func Table8(cfg Config) []Table8Row {
	var out []Table8Row
	for _, p := range table8Systems() {
		out = append(out, Table8Row{System: p.Name, Results: runPacketAlgos(cfg, p)})
	}
	return out
}

// Table8Report renders Table 8.
func Table8Report(rows []Table8Row) string {
	t := report.Table{
		Title:   "Table 8: Fletcher's Checksum Results (256-byte packets)",
		Headers: []string{"System", "by", "Missed", "% splices"},
	}
	for _, r := range rows {
		for _, e := range r.Results {
			t.AddRow(r.System, e.Label, report.Count(e.Res.MissedByChecksum),
				report.RatePercent(e.Res.MissRate(e.Res.MissedByChecksum)))
		}
		t.AddRow("", "", "", "")
	}
	return t.Render()
}

// Table9Row compares header vs trailer checksum placement.
type Table9Row struct {
	System  string
	Header  sim.Result
	Trailer sim.Result
}

// Table9 runs the trailer-checksum experiment.
func Table9(cfg Config) []Table9Row {
	var out []Table9Row
	for _, p := range table8Systems() {
		hdr, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name, cfg.simOptions(sim.Options{}))
		if err != nil {
			panic(err)
		}
		trl, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
			cfg.simOptions(sim.Options{Build: tcpip.BuildOptions{Placement: tcpip.PlacementTrailer}}))
		if err != nil {
			panic(err)
		}
		out = append(out, Table9Row{System: p.Name, Header: hdr, Trailer: trl})
	}
	return out
}

// Table9Report renders Table 9.
func Table9Report(rows []Table9Row) string {
	t := report.Table{
		Title:   "Table 9: Trailer Checksum Results (256-byte packets)",
		Headers: []string{"Filesystem", "TCP Misses", "Trailer Misses", "Uniform"},
	}
	for _, r := range rows {
		t.AddRow(r.System,
			report.RatePercent(r.Header.MissRate(r.Header.MissedByChecksum)),
			report.RatePercent(r.Trailer.MissRate(r.Trailer.MissedByChecksum)),
			report.Percent(stats.UniformMissRate(16)))
	}
	return t.Render()
}

// Table10 compares header vs trailer false positives/negatives on the
// Stanford /u1 system.
type Table10Data struct {
	Header  sim.Result
	Trailer sim.Result
}

// Table10 runs the 2×2 comparison.
func Table10(cfg Config) Table10Data {
	p := corpus.StanfordU1()
	hdr, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name, cfg.simOptions(sim.Options{}))
	if err != nil {
		panic(err)
	}
	trl, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
		cfg.simOptions(sim.Options{Build: tcpip.BuildOptions{Placement: tcpip.PlacementTrailer}}))
	if err != nil {
		panic(err)
	}
	return Table10Data{Header: hdr, Trailer: trl}
}

// Table10Report renders Table 10.
func Table10Report(d Table10Data) string {
	t := report.Table{
		Title:   "Table 10: Header vs Trailer Checksum Failure Rates (smeg:/u1)",
		Headers: []string{"False Positive/Negative", "header", "trailer"},
	}
	t.AddRow("Fails checksum, data identical",
		report.Count(d.Header.IdenticalFailedChecksum),
		report.Count(d.Trailer.IdenticalFailedChecksum))
	t.AddRow("Passes checksum, data changed",
		report.Count(d.Header.MissedByChecksum),
		report.Count(d.Trailer.MissedByChecksum))
	hID := d.Header.Counts
	tID := d.Trailer.Counts
	t.AddRow("Fails checksum, data identical (%)",
		report.RatePercent(ratio(hID.IdenticalFailedChecksum, hID.Total)),
		report.RatePercent(ratio(tID.IdenticalFailedChecksum, tID.Total)))
	t.AddRow("Passes checksum, data changed (%)",
		report.RatePercent(hID.MissRate(hID.MissedByChecksum)),
		report.RatePercent(tID.MissRate(tID.MissedByChecksum)))
	return t.Render()
}

// ratio is a/b; ok is false when b is zero and the rate is unknown.
func ratio(a, b uint64) (rate float64, ok bool) {
	if b == 0 {
		return 0, false
	}
	return float64(a) / float64(b), true
}

// EffectiveBitsRow is the §7 headline computation for one system.
type EffectiveBitsRow struct {
	System        string
	MissRate      float64
	MissRateOK    bool // false when no splice remained: both numbers are unknown
	EffectiveBits float64
}

// EffectiveBits computes, for each Table 1–3 system, how many bits of
// uniform-data CRC the measured TCP miss rate corresponds to.
func EffectiveBits(results []sim.Result) []EffectiveBitsRow {
	var out []EffectiveBitsRow
	for _, r := range results {
		rate, ok := r.MissRate(r.MissedByChecksum)
		out = append(out, EffectiveBitsRow{
			System:        r.System,
			MissRate:      rate,
			MissRateOK:    ok,
			EffectiveBits: stats.EffectiveBits(rate),
		})
	}
	return out
}

// EffectiveBitsReport renders the §7 comparison.
func EffectiveBitsReport(rows []EffectiveBitsRow) string {
	t := report.Table{
		Title:   "§7: Effective strength of the 16-bit TCP checksum over real data",
		Headers: []string{"System", "miss rate", "effective bits", "10-bit CRC (uniform)"},
	}
	for _, r := range rows {
		eb := "inf"
		switch {
		case !r.MissRateOK:
			eb = "-"
		case !math.IsInf(r.EffectiveBits, 1):
			eb = fmt.Sprintf("%.1f", r.EffectiveBits)
		}
		t.AddRow(r.System, report.RatePercent(r.MissRate, r.MissRateOK), eb, report.Percent(stats.UniformMissRate(10)))
	}
	return t.Render()
}

// Ablations runs the §6.2 and §6.3 checks over the Stanford profile.
type AblationData struct {
	Baseline     sim.Result // filled IP header, inverted checksum
	ZeroIPHeader sim.Result // §6.2 artifact reproduced
	NoInvert     sim.Result // §6.3 non-inverted checksum
}

// Ablations runs all three configurations on the same corpus.
func Ablations(cfg Config) AblationData {
	p := corpus.SICSOpt()
	base, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name, cfg.simOptions(sim.Options{}))
	if err != nil {
		panic(err)
	}
	zero, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
		cfg.simOptions(sim.Options{Build: tcpip.BuildOptions{ZeroIPHeader: true}}))
	if err != nil {
		panic(err)
	}
	noinv, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
		cfg.simOptions(sim.Options{Build: tcpip.BuildOptions{NoInvert: true}}))
	if err != nil {
		panic(err)
	}
	return AblationData{Baseline: base, ZeroIPHeader: zero, NoInvert: noinv}
}

// AblationsReport renders the ablation comparison.
func AblationsReport(d AblationData) string {
	t := report.Table{
		Title:   "§6.2/§6.3 ablations (sics.se:/opt)",
		Headers: []string{"configuration", "Remaining", "Missed by TCP", "rate"},
	}
	for _, e := range []struct {
		name string
		res  sim.Result
	}{
		{"baseline (filled IP header, inverted)", d.Baseline},
		{"zeroed IP header (SIGCOMM '95 artifact)", d.ZeroIPHeader},
		{"non-inverted checksum", d.NoInvert},
	} {
		t.AddRow(e.name, report.Count(e.res.Remaining),
			report.Count(e.res.MissedByChecksum),
			report.RatePercent(e.res.MissRate(e.res.MissedByChecksum)))
	}
	return t.Render()
}

// Pathological runs the §5.5 pathological corpora under every packet
// algorithm the registry and builder share.
type PathologicalRow struct {
	Corpus  string
	Results []AlgResult
}

// Pathological measures the §5.5 cases.
func Pathological(cfg Config) []PathologicalRow {
	var out []PathologicalRow
	for _, p := range []corpus.Profile{
		corpus.PathologicalPBM(), corpus.PathologicalPSHex(), corpus.PathologicalGmon(),
	} {
		out = append(out, PathologicalRow{Corpus: p.Name, Results: runPacketAlgos(cfg, p)})
	}
	return out
}

// PathologicalReport renders the §5.5 comparison.
func PathologicalReport(rows []PathologicalRow) string {
	headers := []string{"corpus"}
	if len(rows) > 0 {
		for _, e := range rows[0].Results {
			headers = append(headers, e.Label)
		}
	}
	t := report.Table{
		Title:   "§5.5: Pathological data patterns",
		Headers: headers,
	}
	for _, r := range rows {
		cells := []string{r.Corpus}
		for _, e := range r.Results {
			cells = append(cells, report.RatePercent(e.Res.MissRate(e.Res.MissedByChecksum)))
		}
		t.AddRow(cells...)
	}
	return t.Render()
}

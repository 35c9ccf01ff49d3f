package experiments

import (
	"fmt"

	"realsum/internal/corpus"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/stats"
)

// CensusRow summarizes one file population's byte-level structure —
// the §1 motivation ("much of the data is character data, which has
// distinct skewing towards certain values... binary data has a
// propensity to contain zeros") made measurable.
type CensusRow struct {
	Type       corpus.FileType
	Bytes      uint64
	ZeroFrac   float64 // fraction of 0x00 bytes
	FFFrac     float64 // fraction of 0xFF bytes
	TopByte    byte
	TopFrac    float64
	EntropyBpB float64 // Shannon entropy, bits per byte
}

// DataCensus generates a sample of every file population and measures
// its byte histogram.
func DataCensus(cfg Config) []CensusRow {
	const perType = 512 * 1024 // bytes sampled per population
	n := int(float64(perType) * cfg.scale())
	if n < 4096 {
		n = 4096
	}
	var out []CensusRow
	for _, ft := range corpus.AllFileTypes() {
		spec := corpus.NewFileSpec(ft, n, 0xCE9505+uint64(ft))
		data := spec.Generate()
		var counts [256]uint64
		for _, b := range data {
			counts[b]++
		}
		var topB byte
		var topC uint64
		for b, c := range counts {
			if c > topC {
				topB, topC = byte(b), c
			}
		}
		total := float64(len(data))
		out = append(out, CensusRow{
			Type:       ft,
			Bytes:      uint64(len(data)),
			ZeroFrac:   float64(counts[0x00]) / total,
			FFFrac:     float64(counts[0xFF]) / total,
			TopByte:    topB,
			TopFrac:    float64(topC) / total,
			EntropyBpB: stats.ShannonEntropy(counts[:]),
		})
	}
	return out
}

// LocalityOfFailure reproduces §5.5's methodology: run the splice
// simulation with per-file attribution and show how concentrated the
// undetected splices are — a handful of pathological files carry most
// of the misses.
type LocalityOfFailure struct {
	Result sim.Result
}

// Locality runs the attribution over the Stanford /u1 profile.
func Locality(cfg Config) LocalityOfFailure {
	p := corpus.StanfordU1()
	res, err := sim.Run(cfg.ctx(), cfg.build(p), p.Name,
		cfg.simOptions(sim.Options{TrackWorst: 10}))
	if err != nil {
		panic(err)
	}
	return LocalityOfFailure{Result: res}
}

// topFiles is how many files the top shares sum: the 5 worst, or every
// attributed file when fewer were attributed.
func (d LocalityOfFailure) topFiles() int { return min(5, len(d.Result.WorstFiles)) }

// TopShare is the share of all missed splices the (up to) 5 worst files
// carry; ok is false when no splice was missed.
func (d LocalityOfFailure) TopShare() (share float64, ok bool) {
	if d.Result.MissedByChecksum == 0 {
		return 0, false
	}
	var top uint64
	for _, f := range d.Result.WorstFiles[:d.topFiles()] {
		top += f.Missed
	}
	return float64(top) / float64(d.Result.MissedByChecksum), true
}

// FilesOfAll is those worst files as a share of all files; ok is false
// when the corpus had none.
func (d LocalityOfFailure) FilesOfAll() (share float64, ok bool) {
	if d.Result.Files == 0 {
		return 0, false
	}
	return float64(d.topFiles()) / float64(d.Result.Files), true
}

// LocalityReport renders the worst-file attribution.
func LocalityReport(d LocalityOfFailure) string {
	t := report.Table{
		Title:   "§5.5: locality of failure — files with the most undetected splices (smeg:/u1)",
		Headers: []string{"file", "remaining splices", "missed", "rate"},
	}
	for _, f := range d.Result.WorstFiles {
		rate := 0.0
		if f.Remaining > 0 {
			rate = float64(f.Missed) / float64(f.Remaining)
		}
		t.AddRow(f.Path, report.Count(f.Remaining), report.Count(f.Missed), report.RatePercent(rate, f.Remaining > 0))
	}
	// The summary keeps one decimal, coarser than report.Percent's three.
	share := func(x float64, ok bool) string {
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*x)
	}
	noun := "files"
	if d.topFiles() == 1 {
		noun = "file"
	}
	s := t.Render()
	s += fmt.Sprintf("\ntop %d %s (%s of all files) carry %s of all missed splices\n",
		d.topFiles(), noun, share(d.FilesOfAll()), share(d.TopShare()))
	return s
}

// DataCensusReport renders the census.
func DataCensusReport(rows []CensusRow) string {
	t := report.Table{
		Title:   "§1 motivation: byte-level structure of each file population",
		Headers: []string{"population", "zero bytes", "0xFF bytes", "top byte", "top share", "entropy (bits/B)"},
	}
	for _, r := range rows {
		t.AddRow(r.Type.String(),
			report.Percent(r.ZeroFrac), report.Percent(r.FFFrac),
			fmt.Sprintf("%#02x", r.TopByte), report.Percent(r.TopFrac),
			fmt.Sprintf("%.2f", r.EntropyBpB))
	}
	return t.Render()
}

// Package experiments regenerates every table and figure in the
// paper's evaluation.  Each function runs one experiment end to end —
// building the synthetic corpora, driving the splice simulation or
// distribution collection, and rendering the result in the paper's
// layout — at a configurable corpus scale so the same code backs both
// the full `cmd/paper` runs and the fast benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/report"
	"realsum/internal/sim"
)

// Config scales and plumbs the experiments.
type Config struct {
	// Scale multiplies every profile's file count (1.0 = the default
	// corpus sizes; benchmarks use less).
	Scale float64
	// Workers bounds per-pass parallelism (default GOMAXPROCS).  Every
	// pass is deterministic in its output at any worker count.
	Workers int
	// Seed is the single root seed for every randomized pass: corpus
	// generation, local any-cells sampling, end-to-end loss runs and
	// netsim trials all derive their seeds from it.  Zero reproduces the
	// historical per-pass seeds, so the committed goldens correspond to
	// Seed 0.
	Seed uint64
	// Progress, when non-nil, receives per-file throughput updates from
	// every pass — the source of cmd/paper -progress.
	Progress *sim.Progress
	// Ctx cancels long passes between files (nil means Background).
	Ctx context.Context
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// collectOptions carries the Config's plumbing into a collection pass.
func (c Config) collectOptions() sim.CollectOptions {
	return sim.CollectOptions{Workers: c.Workers, Seed: c.Seed, Progress: c.Progress}
}

// convolve computes p⊛q (serial and exact); like the collection
// passes, it panics if the Ctx is cancelled.
func (c Config) convolve(p, q dist.PMF) dist.PMF {
	if err := c.ctx().Err(); err != nil {
		panic(err)
	}
	return p.Convolve(q)
}

// build scales a profile and folds the Config's root seed into its
// corpus seed — the one place every experiment materializes a corpus,
// so -seed reshapes every synthetic file system coherently.
func (c Config) build(p corpus.Profile) *corpus.FS {
	p = p.Scale(c.scale())
	p.Seed ^= c.Seed
	return p.Build()
}

// simOptions applies the Config's plumbing to splice-run options.
func (c Config) simOptions(opt sim.Options) sim.Options {
	opt.Workers = c.Workers
	opt.Progress = c.Progress
	return opt
}

// runSystems simulates a list of profiles under opt.
func runSystems(cfg Config, profiles []corpus.Profile, opt sim.Options) []sim.Result {
	var out []sim.Result
	for _, p := range profiles {
		fs := cfg.build(p)
		res, err := sim.Run(cfg.ctx(), fs, p.Name, cfg.simOptions(opt))
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", p.Name, err))
		}
		out = append(out, res)
	}
	return out
}

// Tables123 reproduces Tables 1–3: CRC and TCP checksum results over
// the NSC, SICS and Stanford systems with 256-byte packets.
func Tables123(cfg Config) []sim.Result {
	return runSystems(cfg, corpus.AllProfiles(), sim.Options{CheckCRC: true})
}

// Table1Report renders the NSC slice of Tables123.
func Table1Report(results []sim.Result) string {
	return "Table 1: CRC and TCP Checksum Results (256-byte packets, NSC systems)\n" +
		report.SpliceTable(filterSystems(results, "nsc"), "TCP")
}

// Table2Report renders the SICS slice.
func Table2Report(results []sim.Result) string {
	return "Table 2: CRC and TCP Checksum Results (256-byte packets, SICS systems)\n" +
		report.SpliceTable(filterSystems(results, "sics.se"), "TCP")
}

// Table3Report renders the Stanford slice.
func Table3Report(results []sim.Result) string {
	return "Table 3: CRC and TCP Checksum Results (256-byte packets, Stanford systems)\n" +
		report.SpliceTable(filterSystems(results, "stanford"), "TCP")
}

func filterSystems(results []sim.Result, substr string) []sim.Result {
	var out []sim.Result
	for _, r := range results {
		if strings.Contains(r.System, substr) {
			out = append(out, r)
		}
	}
	return out
}

// Figure2 reproduces the distribution study of §4.3–4.4 over the
// Stanford /u1 profile: sorted PDFs of the TCP checksum over blocks of
// k = 1, 2, 4 cells, the convolution prediction for k = 2, and the
// CDFs of the most common 65 values.
type Figure2Data struct {
	PDF     map[int][]float64 // k -> sorted descending PDF
	CDF65   map[int][]float64 // k -> CDF over top 65 values
	Predict []float64         // sorted PDF of the k=2 convolution prediction
	// TopShare is the share of probability mass carried by the top 65
	// single-cell values (≈0.1% of the space) — §4.3's "the top 0.1% of
	// the checksum values occurred 2.5% of the time".
	TopShare float64
	// PMaxValue and PMaxP identify the single most common value.
	PMaxValue uint16
	PMaxP     float64
}

// Figure2 collects the Figure 2 series.
func Figure2(cfg Config) Figure2Data {
	fs := cfg.build(corpus.StanfordU1())
	out := Figure2Data{PDF: map[int][]float64{}, CDF65: map[int][]float64{}}
	var single *dist.Histogram
	for _, k := range []int{1, 2, 4} {
		h, err := sim.CollectBlockHistogram(cfg.ctx(), fs, k, cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		out.PDF[k] = h.SortedPDF()
		out.CDF65[k] = h.CDF(65)
		if k == 1 {
			single = h
		}
	}
	p1 := dist.FromHistogram(single)
	p2 := cfg.convolve(p1, p1)
	out.Predict = sortedDesc(p2)
	out.TopShare = single.TopShare(65)
	out.PMaxValue, out.PMaxP = single.PMax()
	return out
}

func sortedDesc(p dist.PMF) []float64 {
	var out []float64
	for _, v := range p.P {
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Figure2Report renders the headline numbers and a short TSV.
func Figure2Report(d Figure2Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: TCP checksum distribution over smeg:/u1 blocks\n")
	fmt.Fprintf(&b, "  most common cell value: %#04x (p = %s)\n", d.PMaxValue, report.Percent(d.PMaxP))
	fmt.Fprintf(&b, "  top-65 cell values carry %s of the mass (uniform would be %s)\n",
		report.Percent(d.TopShare), report.Percent(65.0/65535))
	series := []report.Series{
		{Name: "k=1", Y: d.PDF[1]},
		{Name: "k=2", Y: d.PDF[2]},
		{Name: "k=4", Y: d.PDF[4]},
		{Name: "predict2", Y: d.Predict},
	}
	b.WriteString(report.TSV(series, 20))
	return b.String()
}

// figure3Algos maps the figure's series labels onto registry names.
// Dispatch is data: the pass below iterates this table and pulls each
// algorithm from the algo registry.
var figure3Algos = []struct{ Label, Algo string }{
	{"IP/TCP", "tcp"},
	{"F255", "f255"},
	{"F256", "f256"},
}

// Figure3 reproduces the PDF comparison of TCP vs Fletcher-255 vs
// Fletcher-256 over 48-byte cells (most common 256 values).
func Figure3(cfg Config) map[string][]float64 {
	fs := cfg.build(corpus.StanfordU1())
	out := map[string][]float64{}
	for _, s := range figure3Algos {
		h, err := sim.CollectCellHistogram(cfg.ctx(), fs, algo.MustLookup(s.Algo), cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		pdf := h.SortedPDF()
		if len(pdf) > 256 {
			pdf = pdf[:256]
		}
		out[s.Label] = pdf
	}
	return out
}

// Figure3Report renders the Figure 3 series as TSV.
func Figure3Report(d map[string][]float64) string {
	return "Figure 3: PDF of TCP, F255, F256 over 48-byte cells (top 256)\n" +
		report.TSV([]report.Series{
			{Name: "IP/TCP", Y: d["IP/TCP"]},
			{Name: "F255", Y: d["F255"]},
			{Name: "F256", Y: d["F256"]},
		}, 16)
}

// Table4Row is one line of Table 4: the probability that two k-cell
// blocks drawn from the file system have congruent checksums.
type Table4Row struct {
	K         int
	Uniform   float64 // 1/65535
	Predicted float64 // i.i.d.-cell convolution model
	Measured  float64 // actual global block sampling
}

// Table4 computes the match probabilities for k = 1..5.
func Table4(cfg Config) []Table4Row {
	fs := cfg.build(corpus.StanfordU1())
	single, err := sim.CollectGlobal(cfg.ctx(), fs, 1, cfg.collectOptions())
	if err != nil {
		panic(err)
	}
	p1 := dist.FromHistogram(single.Histogram())
	measured := single.CongruentProbability() // the k = 1 row
	var rows []Table4Row
	pk := p1
	for k := 1; k <= 5; k++ {
		if k > 1 {
			g, err := sim.CollectGlobal(cfg.ctx(), fs, k, cfg.collectOptions())
			if err != nil {
				panic(err)
			}
			measured = g.CongruentProbability()
		}
		rows = append(rows, Table4Row{
			K:         k,
			Uniform:   1.0 / 65535,
			Predicted: pk.SelfMatch(),
			Measured:  measured,
		})
		if k < 5 {
			pk = cfg.convolve(pk, p1)
		}
	}
	return rows
}

// Table4Report renders Table 4.
func Table4Report(rows []Table4Row) string {
	t := report.Table{
		Title:   "Table 4: Probability (%) of checksum match for substitutions of length k cells",
		Headers: []string{"Length", "Uniform", "Predicted", "Measured"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.K),
			report.Percent(r.Uniform), report.Percent(r.Predicted), report.Percent(r.Measured))
	}
	return t.Render()
}

// Table5Row is one line of Table 5: global vs local congruence.
type Table5Row struct {
	K                  int
	Global             float64
	Local              float64
	ExcludingIdentical float64
	// NonContiguous uses the paper's actual sampling method: k-cell
	// blocks assembled from any cells of the window, not just adjacent
	// runs (§4.6).
	NonContiguous float64
	// NonContiguousExcl excludes byte-identical non-contiguous pairs.
	NonContiguousExcl float64
}

// Table5 computes locality-restricted congruence for k = 1..4 over the
// Stanford profile, with the paper's 512-byte window.
func Table5(cfg Config) []Table5Row {
	fs := cfg.build(corpus.StanfordU1())
	var rows []Table5Row
	for k := 1; k <= 4; k++ {
		g, err := sim.CollectGlobal(cfg.ctx(), fs, k, cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		loc, err := sim.CollectLocal(cfg.ctx(), fs, k, 512, cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		nc, err := sim.CollectLocalAnyCells(cfg.ctx(), fs, k, 512, 8, cfg.collectOptions())
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table5Row{
			K:                  k,
			Global:             g.CongruentProbability(),
			Local:              loc.CongruentP(),
			ExcludingIdentical: loc.ExcludeIdenticalP(),
			NonContiguous:      nc.CongruentP(),
			NonContiguousExcl:  nc.ExcludeIdenticalP(),
		})
	}
	return rows
}

// Table5Report renders Table 5.
func Table5Report(rows []Table5Row) string {
	t := report.Table{
		Title: "Table 5: Probability (%) of checksum match for k-cell blocks, local data (512-byte window)",
		Headers: []string{"Length", "Globally Congruent", "Locally Congruent", "Excluding Identical",
			"Non-contig Congruent", "Non-contig Excl.Ident"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.K),
			report.Percent(r.Global), report.Percent(r.Local), report.Percent(r.ExcludingIdentical),
			report.Percent(r.NonContiguous), report.Percent(r.NonContiguousExcl))
	}
	return t.Render()
}

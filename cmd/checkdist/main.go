// Command checkdist measures checksum-value distributions over a
// corpus: the Figure 2 PDF/CDF series, the Figure 3 algorithm
// comparison and the Table 4/5 congruence probabilities.
//
// Usage:
//
//	checkdist -profile smeg.stanford.edu:/u1 -fig2
//	checkdist -dir /usr/share -census
//	checkdist -profile sics.se:/opt -k 2      # one histogram summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/experiments"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/stats"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// figure is one of the paper's fixed distribution passes.
type figure struct {
	flag   string
	on     *bool
	report func(experiments.Config) string
}

// run is the whole command: it parses args, measures the corpus under
// ctx and prints the report, returning the exit status — 0 on success,
// 1 if walking the corpus fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checkdist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "smeg.stanford.edu:/u1", "synthetic site profile name")
	dir := fs.String("dir", "", "scan a real directory instead of a profile")
	scale := fs.Float64("scale", 1.0, "profile scale factor")
	census := fs.Bool("census", false, "byte-level census (zero fraction, entropy) of the corpus")
	figures := []figure{
		{"fig2", fs.Bool("fig2", false, "emit the Figure 2 series (profile-based only)"),
			func(c experiments.Config) string { return experiments.Figure2Report(experiments.Figure2(c)) }},
		{"fig3", fs.Bool("fig3", false, "emit the Figure 3 series (profile-based only)"),
			func(c experiments.Config) string { return experiments.Figure3Report(experiments.Figure3(c)) }},
		{"table4", fs.Bool("table4", false, "emit Table 4 (profile-based only)"),
			func(c experiments.Config) string { return experiments.Table4Report(experiments.Table4(c)) }},
		{"table5", fs.Bool("table5", false, "emit Table 5 (profile-based only)"),
			func(c experiments.Config) string { return experiments.Table5Report(experiments.Table5(c)) }},
	}
	k := fs.Int("k", 1, "block size in cells for the summary histogram")
	window := fs.Int("window", 512, "locality window in bytes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "checkdist: "+format+"\n", args...)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// The figure and table passes run the paper's own corpus, block
	// sizes and window; only -scale applies to them.
	var chosen []figure
	for _, f := range figures {
		if *f.on {
			chosen = append(chosen, f)
		}
	}
	if len(chosen) > 1 {
		return usage("-%s and -%s are separate runs; give one", chosen[0].flag, chosen[1].flag)
	}
	if len(chosen) == 1 {
		for _, name := range []string{"dir", "profile", "k", "window", "census"} {
			if set[name] {
				return usage("-%s runs the paper's fixed configuration; -%s does not apply", chosen[0].flag, name)
			}
		}
		fmt.Fprint(stdout, chosen[0].report(experiments.Config{Scale: *scale}))
		return 0
	}

	if *census {
		for _, name := range []string{"k", "window"} {
			if set[name] {
				return usage("-census counts bytes; -%s does not apply", name)
			}
		}
	} else {
		if *k < 1 {
			return usage("-k must be at least 1 (got %d)", *k)
		}
		if *window < dist.CellSize**k {
			return usage("-window %d is shorter than one %d-cell block (%d bytes): no pair of blocks fits", *window, *k, dist.CellSize**k)
		}
	}

	// Summary mode over a profile or directory.
	var w corpus.Walker
	var name string
	if *dir != "" {
		if set["profile"] {
			return usage("-dir and -profile name two corpora; give one")
		}
		if set["scale"] {
			return usage("-scale scales a synthetic profile; it does not apply to -dir")
		}
		w, name = corpus.DirWalker(*dir), *dir
	} else {
		p, ok := corpus.ByName(*profile)
		if !ok {
			return usage("unknown profile %q", *profile)
		}
		w, name = p.Scale(*scale).Build(), p.Name
	}
	if *census {
		return byteCensus(w, name, stdout, stderr)
	}

	g, err := sim.CollectGlobal(ctx, w, *k, sim.CollectOptions{})
	if err != nil {
		fmt.Fprintf(stderr, "checkdist: %v\n", err)
		return 1
	}
	loc, err := sim.CollectLocal(ctx, w, *k, *window, sim.CollectOptions{})
	if err != nil {
		fmt.Fprintf(stderr, "checkdist: %v\n", err)
		return 1
	}
	h := g.Histogram()
	v, p := h.PMax()
	// A share needs one block to be taken over, a pair probability two.
	some, pairs := g.Blocks() > 0, g.Blocks() > 1
	common := "-"
	if some {
		common = fmt.Sprintf("%#04x", v)
	}
	fmt.Fprintf(stdout, "corpus: %s (k = %d cells)\n", name, *k)
	fmt.Fprintf(stdout, "blocks sampled:        %s\n", report.Count(g.Blocks()))
	fmt.Fprintf(stdout, "distinct sums:         %s\n", report.Count(uint64(h.Distinct())))
	fmt.Fprintf(stdout, "most common sum:       %s (p = %s)\n", common, report.RatePercent(p, some))
	fmt.Fprintf(stdout, "top-65 mass:           %s\n", report.RatePercent(h.TopShare(65), some))
	fmt.Fprintf(stdout, "global congruence:     %s (uniform: %s)\n",
		report.RatePercent(g.CongruentProbability(), pairs), report.Percent(1.0/65535))
	fmt.Fprintf(stdout, "identical blocks:      %s\n", report.RatePercent(g.IdenticalProbability(), pairs))
	fmt.Fprintf(stdout, "local congruence:      %s over %s pairs (window %d)\n",
		report.RatePercent(loc.CongruentP(), loc.Pairs > 0), report.Count(loc.Pairs), *window)
	fmt.Fprintf(stdout, "local excl. identical: %s\n", report.RatePercent(loc.ExcludeIdenticalP(), loc.Pairs > 0))
	return 0
}

// byteCensus prints the byte-level census of w: the zero and 0xFF
// fractions, the most common byte and the entropy.
func byteCensus(w corpus.Walker, name string, stdout, stderr io.Writer) int {
	var counts [256]uint64
	var files int
	err := w.Walk(func(path string, data []byte) error {
		files++
		for _, b := range data {
			counts[b]++
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "checkdist: %v\n", err)
		return 1
	}
	var total uint64
	var topB int
	for b, c := range counts {
		total += c
		if c > counts[topB] {
			topB = b
		}
	}
	share := func(c uint64) string { return report.RatePercent(float64(c)/float64(total), total > 0) }
	top, entropy := "-", "-"
	if total > 0 {
		top = fmt.Sprintf("%#02x (%s)", topB, share(counts[topB]))
		entropy = fmt.Sprintf("%.2f bits/byte", stats.ShannonEntropy(counts[:]))
	}
	fmt.Fprintf(stdout, "corpus: %s\n", name)
	fmt.Fprintf(stdout, "files:        %d\n", files)
	fmt.Fprintf(stdout, "bytes:        %s\n", report.Count(total))
	fmt.Fprintf(stdout, "zero bytes:   %s\n", share(counts[0x00]))
	fmt.Fprintf(stdout, "0xFF bytes:   %s\n", share(counts[0xFF]))
	fmt.Fprintf(stdout, "top byte:     %s\n", top)
	fmt.Fprintf(stdout, "entropy:      %s\n", entropy)
	return 0
}

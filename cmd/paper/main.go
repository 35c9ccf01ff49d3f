// Command paper regenerates every table and figure in the paper's
// evaluation over the synthetic corpora, printing each in the paper's
// layout.
//
// Usage:
//
//	paper [-scale 1.0] [-run table1,figure2,...] [-workers N] [-seed S] [-progress]
//	paper -netsim [-scale 1.0] [-workers N] [-seed S]
//	paper -census [-scale 1.0] [-workers N] [-seed S]
//	paper -list
//
// With no -run flag every experiment runs in paper order; an unknown
// -run name is an error (exit 2) that lists the known ones.  The -scale
// flag multiplies the corpus sizes (1.0 ≈ a few MB per file system; the
// paper's originals were GBs — scale up if you have the minutes).
// -progress prints live throughput to stderr; -workers bounds per-pass
// parallelism (outputs are byte-identical at any worker count).
// Interrupt (Ctrl-C) cancels the run between files.
//
// -seed is the single root seed behind every randomized pass: corpus
// generation, the §4.6 local any-cells sampling, the end-to-end loss
// runs and the netsim fault-injection trials all derive their RNG
// streams from it.  The default 0 reproduces the historical per-pass
// seeds, so committed goldens and EXPERIMENTS.md correspond to -seed 0;
// any other value reshapes every corpus and fault pattern coherently
// while preserving worker-count independence.
//
// -netsim runs only the Monte Carlo fault-injection pipeline (§7's
// alternative error models): corpus files ride TCP/IPv4 (and
// UDP + IP fragmentation) inside AAL5/ATM cells through cell-loss
// channels at a matched 1% average rate (i.i.d. drop, a Gilbert–Elliott
// two-state chain, geometric burst-of-cells drops), bit-flip,
// solid-burst, reorder, misinsertion and cell-duplication channels, and
// every registry algorithm is scored on the corrupted deliveries under
// both checksum placements (end-to-end over the PDU and per TCP
// segment, with a header-vs-trailer position contrast for the TCP sum).
// The report includes i.i.d.-vs-correlated loss and
// end-to-end-vs-per-segment placement contrast sections.
//
// -census runs the polynomial-selection census (internal/census): the
// analytic lane computes each CRC candidate's order-of-x, weight-2/3
// spectrum and uniform-assumption P_ud in gf2poly algebra, the
// injection lane replays the netsim fault battery over the corpus
// scoring the whole slate — IEEE, Castagnoli, Koopman's search winners
// and the 5G NR family — and the report contrasts the two rankings,
// calling out any inversion explicitly.  (This is distinct from
// -run census, the byte-value data census of the corpus itself.)
//
// The passes are timed by the bench/ harness (bash bench/run.sh
// --workload splice-tables|dist-passes|netsim-battery|census), which
// also checks their output; `go test -bench BenchmarkSum ./internal/algo`
// times each registry algorithm's one-shot checksum.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"realsum/internal/experiments"
	"realsum/internal/sim"
)

// experimentNames lists every -run experiment in paper order.
var experimentNames = []string{
	"table1", "table2", "table3", "figure2", "figure3", "table4",
	"table5", "table6", "table7", "table8", "table9", "table10",
	"effectivebits", "ablations", "pathological", "endtoend", "adler", "census", "locality", "fragswap",
	"netsim",
}

// selectExperiments resolves the -run list, or -netsim as its shorthand
// for "netsim", into the set of experiments to run; an empty list
// selects all of them.  Names are matched case-insensitively after
// trimming spaces.  Any other name is an error that quotes every
// unknown entry and lists the known ones.
func selectExperiments(run string, netsimOnly bool) (map[string]bool, error) {
	if netsimOnly {
		run = "netsim"
	}
	want := map[string]bool{}
	if run == "" {
		for _, n := range experimentNames {
			want[n] = true
		}
		return want, nil
	}
	var unknown []string
	for _, n := range strings.Split(run, ",") {
		n = strings.TrimSpace(strings.ToLower(n))
		if !slices.Contains(experimentNames, n) {
			unknown = append(unknown, strconv.Quote(n))
			continue
		}
		want[n] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(experimentNames, ", "))
	}
	return want, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the selected
// experiments under ctx and prints their reports to stdout (timings and
// progress to stderr), returning the exit status — 0 on success, 1 if
// the census fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "corpus scale factor")
	runList := fs.String("run", "", "comma-separated experiments (default: all; -list prints the names)")
	list := fs.Bool("list", false, "list experiment names and exit")
	workers := fs.Int("workers", 0, "parallel workers per pass (default GOMAXPROCS; output is identical at any count)")
	seed := fs.Uint64("seed", 0, "root seed for every randomized pass: corpus generation, local any-cells sampling, end-to-end loss and netsim trials all derive from it (0 = the historical defaults the committed goldens use)")
	netsimOnly := fs.Bool("netsim", false, "run only the netsim fault-injection pass (shorthand for -run netsim)")
	censusOnly := fs.Bool("census", false, "run the polynomial-selection census: analytic uniform-assumption P_ud vs injected miss rate over the measured corpus for the CRC candidate slate (IEEE, Castagnoli, Koopman, 5G NR), then exit")
	progress := fs.Bool("progress", false, "print live throughput (files, MB, MB/s) to stderr while experiments run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "paper: unexpected argument %q (every input is a flag)\n", fs.Arg(0))
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(stderr, "paper: -scale must be a positive finite number (got %v)\n", *scale)
		return 2
	}

	if *censusOnly {
		var prog *sim.Progress
		if *progress {
			prog = &sim.Progress{}
			defer startProgress(prog, stderr)()
		}
		if err := runCensus(ctx, *scale, *seed, *workers, prog, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "paper: census: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experimentNames, "\n"))
		return 0
	}
	want, err := selectExperiments(*runList, *netsimOnly)
	if err != nil {
		fmt.Fprintf(stderr, "paper: %v\n", err)
		return 2
	}

	cfg := experiments.Config{Scale: *scale, Workers: *workers, Seed: *seed, Ctx: ctx}
	if *progress {
		prog := &sim.Progress{}
		cfg.Progress = prog
		defer startProgress(prog, stderr)()
	}
	step := func(name string, fn func() string) {
		if !want[name] {
			return
		}
		start := time.Now()
		out := fn()
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	// Tables 1–3 and the effective-bits computation share one big run.
	needT123 := want["table1"] || want["table2"] || want["table3"] || want["effectivebits"]
	if needT123 {
		start := time.Now()
		results := experiments.Tables123(cfg)
		fmt.Fprintf(stderr, "[tables 1-3 simulation done in %v]\n", time.Since(start).Round(time.Millisecond))
		if want["table1"] {
			fmt.Fprintln(stdout, experiments.Table1Report(results))
		}
		if want["table2"] {
			fmt.Fprintln(stdout, experiments.Table2Report(results))
		}
		if want["table3"] {
			fmt.Fprintln(stdout, experiments.Table3Report(results))
		}
		if want["effectivebits"] {
			fmt.Fprintln(stdout, experiments.EffectiveBitsReport(experiments.EffectiveBits(results)))
		}
	}

	step("figure2", func() string { return experiments.Figure2Report(experiments.Figure2(cfg)) })
	step("figure3", func() string { return experiments.Figure3Report(experiments.Figure3(cfg)) })
	step("table4", func() string { return experiments.Table4Report(experiments.Table4(cfg)) })
	step("table5", func() string { return experiments.Table5Report(experiments.Table5(cfg)) })
	step("table6", func() string { return experiments.Table6Report(experiments.Table6(cfg)) })
	step("table7", func() string {
		plain, comp := experiments.Table7(cfg)
		return experiments.Table7Report(plain, comp)
	})
	step("table8", func() string { return experiments.Table8Report(experiments.Table8(cfg)) })
	step("table9", func() string { return experiments.Table9Report(experiments.Table9(cfg)) })
	step("table10", func() string { return experiments.Table10Report(experiments.Table10(cfg)) })
	step("ablations", func() string { return experiments.AblationsReport(experiments.Ablations(cfg)) })
	step("pathological", func() string { return experiments.PathologicalReport(experiments.Pathological(cfg)) })
	step("endtoend", func() string { return experiments.EndToEndReport(experiments.EndToEnd(cfg)) })
	step("adler", func() string { return experiments.AdlerReport(experiments.AdlerComparison(cfg)) })
	step("census", func() string { return experiments.DataCensusReport(experiments.DataCensus(cfg)) })
	step("locality", func() string { return experiments.LocalityReport(experiments.Locality(cfg)) })
	step("fragswap", func() string { return experiments.FragSwapReport(experiments.FragSwap(cfg)) })
	step("netsim", func() string { return experiments.NetSimReport(experiments.NetSim(cfg)) })
	return 0
}

// startProgress prints cumulative throughput to stderr every 2 seconds
// until the returned stop function runs.
func startProgress(p *sim.Progress, stderr io.Writer) (stopFn func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				files, bytes := p.Files(), p.Bytes()
				el := time.Since(start).Seconds()
				fmt.Fprintf(stderr, "[progress: %d files, %.1f MB, %.1f MB/s]\n",
					files, float64(bytes)/1e6, float64(bytes)/1e6/el)
			}
		}
	}()
	return func() { close(done) }
}

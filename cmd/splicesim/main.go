// Command splicesim runs the packet-splice simulation (§3.2 of the
// paper) over a synthetic site profile or a real directory tree and
// prints the Tables 1–3-style classification.
//
// Usage:
//
//	splicesim -profile sics.se:/opt [-alg tcp|f255|f256]
//	          [-placement header|trailer] [-compress] [-nocrc]
//	          [-segment 256] [-scale 1.0]
//	splicesim -dir /some/path
//	splicesim -profiles           # list known profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"realsum/internal/corpus"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/tcpip"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the simulation under
// ctx and prints the table, returning the exit status — 0 on success,
// 1 if the simulation fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("splicesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "", "synthetic site profile name (see -profiles)")
	dir := fs.String("dir", "", "scan a real directory instead of a profile")
	alg := fs.String("alg", "tcp", "checksum algorithm: tcp, f255, f256")
	placement := fs.String("placement", "header", "checksum placement: header, trailer")
	compress := fs.Bool("compress", false, "LZW-compress every file first (Table 7)")
	nocrc := fs.Bool("nocrc", false, "skip the AAL5 CRC check (faster)")
	noinvert := fs.Bool("noinvert", false, "store the raw sum instead of its complement (§6.3)")
	zeroip := fs.Bool("zeroip", false, "reproduce the §6.2 zeroed-IP-header artifact")
	segment := fs.Int("segment", sim.DefaultSegmentSize, "TCP payload bytes per packet")
	scale := fs.Float64("scale", 1.0, "profile scale factor")
	workers := fs.Int("workers", 0, "parallel workers (default GOMAXPROCS)")
	worst := fs.Int("worst", 0, "report the N files with the most checksum misses (§5.5)")
	listProfiles := fs.Bool("profiles", false, "list known profiles and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "splicesim: "+format+"\n", args...)
		return 2
	}

	if *listProfiles {
		for _, p := range corpus.AllProfiles() {
			fmt.Fprintln(stdout, p.Name)
		}
		return 0
	}

	opt := sim.Options{
		SegmentSize: *segment,
		CheckCRC:    !*nocrc,
		Compress:    *compress,
		Workers:     *workers,
		TrackWorst:  *worst,
	}
	builderAlg, ok := tcpip.AlgByName(*alg)
	if !ok {
		return usage("unknown -alg %q", *alg)
	}
	opt.Build.Alg = builderAlg
	switch *placement {
	case "header":
	case "trailer":
		opt.Build.Placement = tcpip.PlacementTrailer
	default:
		return usage("unknown -placement %q", *placement)
	}
	opt.Build.NoInvert = *noinvert
	opt.Build.ZeroIPHeader = *zeroip

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var w corpus.Walker
	var name string
	switch {
	case *dir != "" && *profile != "":
		return usage("-dir and -profile name two corpora; give one")
	case *dir != "" && set["scale"]:
		return usage("-scale scales a synthetic profile; it does not apply to -dir")
	case *dir != "":
		w, name = corpus.DirWalker(*dir), *dir
	case *profile != "":
		p, ok := corpus.ByName(*profile)
		if !ok {
			return usage("unknown profile %q (try -profiles)", *profile)
		}
		w, name = p.Scale(*scale).Build(), p.Name
	default:
		return usage("one of -profile or -dir is required")
	}

	res, err := sim.Run(ctx, w, name, opt)
	if err != nil {
		fmt.Fprintf(stderr, "splicesim: simulation failed: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, report.SpliceTable([]sim.Result{res}, opt.Build.Alg.String()))
	fmt.Fprintf(stdout, "\n(%d files, %s packets, %s bytes, checksum=%v placement=%v compress=%v)\n",
		res.Files, report.Count(res.Packets), report.Count(res.Bytes),
		opt.Build.Alg, opt.Build.Placement, *compress)
	if len(res.WorstFiles) > 0 {
		fmt.Fprintf(stdout, "\nworst files by checksum misses:\n")
		for _, f := range res.WorstFiles {
			fmt.Fprintf(stdout, "  %8d missed / %8d remaining  %s\n", f.Missed, f.Remaining, f.Path)
		}
	}
	return 0
}

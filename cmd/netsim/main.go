// Command netsim runs the Monte Carlo end-to-end fault-injection
// pipeline on its own: corpus files are encoded as TCP/IPv4 (or
// UDP/IPv4 + fragmentation) packets inside AAL5/ATM cells, pushed
// through a fault channel, and scored at the receiver against every
// algorithm in the registry.
//
// Usage:
//
//	netsim [-scenario FILE.json]
//	       [-profile "smeg.stanford.edu:/u1"] [-scale 1.0] [-dir PATH]
//	       [-mode tcp|udpfrag]
//	       [-channels drop,drop-ge,drop-burst,bitflip,burst,reorder,misinsert,dup]
//	       [-placement e2e,segment]
//	       [-algos crc32,crc32c,crc24a]
//	       [-compress]
//	       [-retrans] [-maxretries 8]
//	       [-trials 6] [-seed 0] [-workers N]
//
// The flags are aliases over a scenario.Scenario — the same declarative
// profile cmd/cksumd serves continuously.  -scenario loads a JSON
// profile first (a relative dir in it is relative to the file); any
// flag set explicitly on the command line overrides the loaded field,
// so `netsim -scenario audit.json -trials 12` is the profile with a
// bigger trial budget.
//
// -dir scores a real directory tree instead of a synthetic profile;
// giving it together with -profile, or -scale with a directory corpus,
// is a usage error (exit 2).  The three drop channels run at a matched 1% average cell-loss rate —
// i.i.d., Gilbert–Elliott, and geometric burst-of-cells — so the report
// contrasts correlated against independent loss directly.  -placement
// selects the checksum placements scored (default both in tcp mode):
// e2e treats each algorithm as one checksum over the whole AAL5 PDU,
// segment scores it per TCP segment and adds the header-vs-trailer
// field-position contrast for the TCP sum.  -compress passes every
// corpus file through the internal/lz payload stage before transport
// encoding, so the injected faults hit near-uniform bytes — the
// paper's Table 7 axis; the report header then carries the per-file
// compression-ratio stats and every pin line is relabeled "+lz".
// -algos restricts the scored battery to the named algorithms; naming a
// polynomial-census candidate (internal/census) registers the census
// slate on demand, so 5G-NR and Koopman generators can ride any
// channel battery without widening the default reports.
// -retrans closes the retransmission loop: deliveries a checksum lane
// detects as corrupt (and packets whose trailer never arrives) are
// retransmitted through the re-rolled channel up to -maxretries
// attempts, misses are accepted corrupt, and the report adds residual
// corrupt bytes per delivered GB, mean transmissions per delivered PDU
// and goodput overhead vs a perfect-detection oracle per (channel ×
// placement × algorithm).  Output is byte-identical at any -workers
// count, and to a cksumd stream of the same scenario at the same seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"realsum/internal/census"
	"realsum/internal/netsim"
	"realsum/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args into a scenario, runs it
// under ctx and prints the report, returning the exit status — 0 on
// success, 1 if the run fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenFile := fs.String("scenario", "", "load a scenario profile (JSON); explicit flags override its fields")
	profile := fs.String("profile", "smeg.stanford.edu:/u1", "synthetic corpus profile (mkcorpus -profiles lists the names)")
	scale := fs.Float64("scale", 1.0, "corpus scale factor")
	dir := fs.String("dir", "", "score a real directory tree instead of a synthetic profile")
	mode := fs.String("mode", "tcp", "transport encoding: tcp (one packet per PDU) or udpfrag (UDP datagrams + IP fragmentation)")
	channels := fs.String("channels", "", "comma-separated fault channels (default: all of "+strings.Join(netsim.ChannelNames(), ",")+")")
	placement := fs.String("placement", "", "comma-separated checksum placements (default: all of "+strings.Join(netsim.PlacementNames(), ",")+"; segment applies to tcp mode only)")
	algos := fs.String("algos", "", "comma-separated algorithm subset to score (default: the full registry); census candidates ("+strings.Join(census.Keys(), ",")+") are registered on demand when named")
	compress := fs.Bool("compress", false, "lz-compress each corpus file before transport encoding (the Table 7 axis)")
	retrans := fs.Bool("retrans", false, "close the retransmission loop: retransmit detected corruptions, accept misses, report residual error and goodput")
	maxretries := fs.Int("maxretries", 0, "retry cap per packet with -retrans (default 8)")
	trials := fs.Int("trials", 0, "trials per (file × channel) (default 6)")
	seed := fs.Uint64("seed", 0, "root seed; every trial's fault pattern derives from it")
	workers := fs.Int("workers", 0, "parallel workers (default GOMAXPROCS; output is identical at any count)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "netsim: "+format+"\n", args...)
		return 2
	}
	var sc scenario.Scenario
	if *scenFile != "" {
		var err error
		sc, err = scenario.Load(*scenFile)
		if err != nil {
			return usage("%v", err)
		}
	} else {
		sc = scenario.Scenario{Profile: *profile}
	}

	// Explicit flags win over the loaded profile; -dir and -profile
	// each displace the corpus the scenario names, and -dir its scale.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "profile":
			sc.Profile, sc.Dir = *profile, ""
		case "dir":
			sc.Dir, sc.Profile, sc.Scale = *dir, "", 0
		case "scale":
			sc.Scale = *scale
		case "mode":
			sc.Mode = *mode
		case "channels":
			sc.Channels = strings.Split(*channels, ",")
		case "placement":
			sc.Placements = strings.Split(*placement, ",")
		case "algos":
			sc.Algorithms = strings.Split(*algos, ",")
		case "compress":
			sc.Compress = *compress
		case "retrans":
			sc.Retrans = *retrans
		case "maxretries":
			sc.MaxRetries = *maxretries
		case "trials":
			sc.Trials = *trials
		case "seed":
			sc.Seed = *seed
		case "workers":
			sc.Workers = *workers
		}
	})
	if set["dir"] && set["profile"] {
		return usage("-dir and -profile name two corpora; give one")
	}
	if err := sc.Validate(); err != nil {
		return usage("%v", err)
	}
	if _, err := sc.Walker(); err != nil {
		return usage("%v", err)
	}

	tally, err := sc.Run(ctx, nil)
	if err != nil {
		fmt.Fprintf(stderr, "netsim: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, tally.Report())
	return 0
}

package main

// metric names one reported number; BENCHMARK.json declares the same
// names, units and directions (bench_test.go checks they agree).
type metric struct{ name, unit, better string }

// endToEnd are the untraced run's metrics: what a user of a paper pass
// sees.
var endToEnd = []metric{
	{"mb_per_s", "MB/s", "higher"},    // input MB / fastest pass wall time at workers=nproc
	{"mb_per_s_w1", "MB/s", "higher"}, // the same at workers=1
	{"cpu_s_per_mb", "s/MB", "lower"}, // mean of the w1 and wN least pass CPU times, per input MB
	{"peak_rss_mb", "MB", "lower"},    // the measuring child's peak resident set
	{"setup_s", "s", "lower"},         // median over launches of child exec to first pass start
}

// perLayer are the traced run's metrics.  Shares are of the traced
// pass's wall time.  A layer the workload's pass does not run reports 0
// seconds, 0 calls and 0 per-item cost.
var perLayer = []metric{
	{"corpus.generate_s", "s", "lower"},
	{"corpus.generate_mb_per_s", "MB/s", "higher"},
	{"tcpip.packetize_ns_per_packet", "ns", "lower"},
	{"splice.pair_s", "s", "lower"},
	{"splice.pair_share", "ratio", "lower"},
	{"splice.pair_us_per_pair", "us", "lower"},
	{"splice.ns_per_candidate", "ns", "lower"},
	{"splice.pairs", "count", "higher"},
	{"splice.candidates", "count", "higher"},
	{"splice.caught_by_header_ratio", "ratio", "higher"},
	{"sim.collect_s", "s", "lower"},
	{"sim.collect_share", "ratio", "lower"},
	{"sim.walks", "count", "lower"},
	{"sim.speedup", "ratio", "higher"},
	{"dist.convolve_s", "s", "lower"},
	{"dist.convolve_share", "ratio", "lower"},
	{"dist.convolve_calls", "count", "lower"},
	{"dist.pmf_support", "count", "higher"},
	{"dist.pmf_s", "s", "lower"},
	{"netsim.file_s", "s", "lower"},
	{"netsim.file_share", "ratio", "lower"},
	{"netsim.us_per_trial", "us", "lower"},
	{"netsim.flush_s", "s", "lower"},
	{"netsim.trials", "count", "higher"},
	{"netsim.corrupted", "count", "higher"},
	{"netsim.transmissions", "count", "higher"},
	{"algo.score_ns_per_pdu", "ns", "lower"},
	{"algo.score_ns_per_cell", "ns", "lower"},
	{"lz.compress_mb_per_s", "MB/s", "higher"},
	{"corpus.compress_mb_per_s", "MB/s", "higher"},
	{"census.analyze_s", "s", "lower"},
	{"census.analyze_share", "ratio", "lower"},
	{"census.score_s", "s", "lower"},
	{"report.render_s", "s", "lower"},
	{"go.alloc_bytes_per_mb", "B/MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
}

// passLayers derives one traced pass's span-based metrics from the self
// time per span name, the span counts, the pass's wall time and root
// self time, and the replay's counts.
func passLayers(secs map[string]float64, calls map[string]int, wall, rootSelf float64, r *replayer) map[string]float64 {
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := r.counts
	return map[string]float64{
		"corpus.generate_s":             secs["corpus.generate"],
		"corpus.generate_mb_per_s":      per(megabytes(r.genBytes), secs["corpus.generate"]),
		"tcpip.packetize_ns_per_packet": per(secs["tcpip.packetize"]*1e9, c["tcpip.packets"]),
		"splice.pair_s":                 secs["splice.pair"],
		"splice.pair_share":             secs["splice.pair"] / wall,
		"splice.pair_us_per_pair":       per(secs["splice.pair"]*1e6, c["splice.pairs"]),
		"splice.ns_per_candidate":       per(secs["splice.pair"]*1e9, c["splice.candidates"]),
		"splice.pairs":                  c["splice.pairs"],
		"splice.candidates":             c["splice.candidates"],
		"splice.caught_by_header_ratio": per(c["splice.caught_by_header"], c["splice.candidates"]),
		"sim.collect_s":                 secs["sim.collect"],
		"sim.collect_share":             secs["sim.collect"] / wall,
		"sim.walks":                     float64(r.walks),
		"dist.convolve_s":               secs["dist.convolve"],
		"dist.convolve_share":           secs["dist.convolve"] / wall,
		"dist.convolve_calls":           float64(calls["dist.convolve"]),
		"dist.pmf_support":              c["dist.pmf_support"],
		"dist.pmf_s":                    secs["dist.pmf"],
		"netsim.file_s":                 secs["netsim.file"],
		"netsim.file_share":             secs["netsim.file"] / wall,
		"netsim.us_per_trial":           per(secs["netsim.file"]*1e6, c["netsim.trials"]),
		"netsim.flush_s":                secs["netsim.flush"],
		"netsim.trials":                 c["netsim.trials"],
		"netsim.corrupted":              c["netsim.corrupted"],
		"netsim.transmissions":          c["netsim.transmissions"],
		"census.score_s":                secs["census.score"],
		"report.render_s":               secs["report.render"],
		"trace.unattributed_share":      rootSelf / wall,
	}
}

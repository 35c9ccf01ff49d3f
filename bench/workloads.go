package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"realsum/internal/algo"
	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/experiments"
	"realsum/internal/inet"
	"realsum/internal/netsim"
	"realsum/internal/onescomp"
	"realsum/internal/scenario"
	"realsum/internal/sim"
	"realsum/internal/splice"
	"realsum/internal/tcpip"
)

// workload is one paper pass prepared for one seed.  run goes through
// the pass's public entry point; replay re-runs the same pass from the
// benchmark's own code at one worker, with a span around each call into
// a layer, and must reproduce run's output exactly.
type workload interface {
	// mb is the input size: the summed FS.TotalBytes of the distinct
	// corpora one pass builds, in MB.
	mb() float64
	// run executes the pass at the given worker count.  An error is a
	// failed output check.
	run(workers int) (output, error)
	replay(r *replayer) (output, error)
	// probeCorpus is the corpus the layer probes run over, and scorers
	// the algorithms the pass scores each PDU with.
	probeCorpus() *corpus.FS
	scorers() []algo.Algorithm
}

// output is a pass's rendered report plus the structured result behind
// it, compared field by field between a pass and its replay.
type output struct {
	report string
	detail any
}

// workloadDefs lists the workloads in run order.  size scales every
// corpus (1 in the benchmark; tests use less).
var workloadDefs = []struct {
	name    string
	prepare func(seed uint64, size float64) workload
}{
	{"splice-tables", newSpliceTables},
	{"dist-passes", newDistPasses},
	{"netsim-battery", newNetsimBattery},
	{"census", newCensus},
}

func prepare(name string, seed uint64, size float64) (workload, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d.prepare(seed, size), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return names
}

// buildFS realizes a profile the way experiments.Config does: scaled,
// with the root seed folded into the corpus seed.
func buildFS(p corpus.Profile, scale float64, seed uint64) *corpus.FS {
	p = p.Scale(scale)
	p.Seed ^= seed
	return p.Build()
}

func megabytes(n int64) float64 { return float64(n) / 1e6 }

// replayer carries a traced replay's tracer and the layer counts it
// observes.
type replayer struct {
	tr       *tracer
	walks    int   // corpus walks: one per generated corpus
	genBytes int64 // bytes generated
	counts   map[string]float64
}

func newReplayer(tr *tracer) *replayer { return &replayer{tr: tr, counts: map[string]float64{}} }

// memCorpus is a corpus generated into memory, so the walk that
// consumes it is timed apart from generation.
type memCorpus struct {
	paths []string
	data  [][]byte
}

func (m *memCorpus) Walk(fn func(path string, data []byte) error) error {
	for i, d := range m.data {
		if err := fn(m.paths[i], d); err != nil {
			return err
		}
	}
	return nil
}

// generate materializes fs under a corpus.generate span.  The real
// passes generate lazily on every walk, so a replay generates once per
// walk too.
func (r *replayer) generate(fs *corpus.FS) *memCorpus {
	r.tr.begin("corpus.generate", r.walks)
	m := &memCorpus{}
	for _, s := range fs.Specs {
		d := s.Generate()
		m.paths = append(m.paths, s.Path)
		m.data = append(m.data, d)
		r.genBytes += int64(len(d))
	}
	r.tr.end()
	r.walks++
	return m
}

// timed runs fn under a span.
func (r *replayer) timed(name string, id int, fn func()) {
	r.tr.begin(name, id)
	fn()
	r.tr.end()
}

// ---- splice-tables: Tables 1–3 ------------------------------------------

// spliceTables runs experiments.Tables123: every site profile, 256-byte
// segments, every splice of every adjacent packet pair enumerated.
type spliceTables struct {
	cfg experiments.Config
	fss []*corpus.FS
	in  float64
}

func newSpliceTables(seed uint64, size float64) workload {
	w := &spliceTables{cfg: experiments.Config{Scale: 0.5 * size, Seed: seed}}
	for _, p := range corpus.AllProfiles() {
		fs := buildFS(p, w.cfg.Scale, seed)
		w.fss = append(w.fss, fs)
		w.in += megabytes(fs.TotalBytes())
	}
	return w
}

func (w *spliceTables) mb() float64               { return w.in }
func (w *spliceTables) probeCorpus() *corpus.FS   { return w.fss[0] }
func (w *spliceTables) scorers() []algo.Algorithm { return algo.All() }

func spliceReport(results []sim.Result) string {
	return experiments.Table1Report(results) + "\n" + experiments.Table2Report(results) + "\n" +
		experiments.Table3Report(results)
}

func (w *spliceTables) run(workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	res := experiments.Tables123(cfg)
	return output{spliceReport(res), res}, nil
}

// replay walks sim.Run's per-file loop: one tcpip.Flow per file, and
// splice.Enumerator.Pair over each adjacent packet pair.  Per-call
// timings are summed per file.
func (w *spliceTables) replay(r *replayer) (output, error) {
	scfg := splice.Config{CheckCRC: true}
	enum := splice.NewEnumerator()
	var bufs [2][]byte
	var results []sim.Result
	var total splice.Counts
	for i, fs := range w.fss {
		mem := r.generate(fs)
		r.tr.begin("sim.run", i)
		res := sim.Result{System: fs.Name}
		for fi, data := range mem.data {
			start := r.tr.now()
			var packNs, pairNs int64
			flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
			var prev []byte
			var packets uint64
			for off := 0; off < len(data); off += sim.DefaultSegmentSize {
				end := min(off+sim.DefaultSegmentSize, len(data))
				slot := packets & 1
				t0 := r.tr.now()
				pkt := flow.NextPacket(bufs[slot][:0], data[off:end])
				t1 := r.tr.now()
				packNs += t1 - t0
				bufs[slot] = pkt[:0]
				packets++
				if prev != nil {
					res.Counts.Add(enum.Pair(prev, pkt, scfg))
					pairNs += r.tr.now() - t1
				}
				prev = pkt
			}
			res.Files++
			res.Packets += packets
			res.Bytes += uint64(len(data))
			file := r.tr.record(r.tr.top(), "sim.file", fi, start, r.tr.now())
			r.tr.record(file, "tcpip.packetize", fi, start, start+packNs)
			r.tr.record(file, "splice.pair", fi, start+packNs, start+packNs+pairNs)
		}
		r.tr.end()
		r.counts["tcpip.packets"] += float64(res.Packets)
		total.Add(res.Counts)
		results = append(results, res)
	}
	r.counts["splice.pairs"] = float64(total.Pairs)
	r.counts["splice.candidates"] = float64(total.Total)
	r.counts["splice.caught_by_header"] = float64(total.CaughtByHeader)
	var report string
	r.timed("report.render", 0, func() { report = spliceReport(results) })
	return output{report, results}, nil
}

// ---- dist-passes: Figures 2–3, Tables 4–5 -------------------------------

// distPasses runs Figure 2, Figure 3, Table 4 and Table 5 over Stanford
// /u1.  Their cost is dominated by PMF convolutions that scale with the
// support of the single-cell checksum distribution, not with the corpus
// bytes, so the file count is pinned per seed to the prefix whose
// support per MB is nearest distSupportPerMB: mb_per_s then measures
// the code rather than the draw.
type distPasses struct {
	cfg experiments.Config
	fs  *corpus.FS
	in  float64
}

const (
	distSupportPerMB           = 16200
	distMinFiles, distMaxFiles = 24, 80
)

func newDistPasses(seed uint64, size float64) workload {
	p := corpus.StanfordU1()
	n := distFiles(p, seed, max(1, int(distMinFiles*size)), max(1, int(distMaxFiles*size)))
	// Profile.Scale truncates Files·scale; the half file keeps it at n.
	w := &distPasses{cfg: experiments.Config{Scale: (float64(n) + 0.5) / float64(p.Files), Seed: seed}}
	w.fs = buildFS(p, w.cfg.Scale, seed)
	w.in = megabytes(w.fs.TotalBytes())
	return w
}

// distFiles returns the file count in [lo, hi] whose corpus prefix has
// a single-cell TCP-checksum support per MB nearest distSupportPerMB.
// Profile.Build draws files in sequence, so a smaller file count yields
// a prefix of a larger one.
func distFiles(p corpus.Profile, seed uint64, lo, hi int) int {
	p.Files = hi
	p.Seed ^= seed
	var seen [1 << 16]bool
	support, bytes := 0, 0
	best, bestDev := lo, math.Inf(1)
	for i, s := range p.Build().Specs {
		data := s.Generate()
		for off := 0; off+dist.CellSize <= len(data); off += dist.CellSize {
			v := onescomp.Normalize(inet.Sum(data[off : off+dist.CellSize]))
			if !seen[v] {
				seen[v] = true
				support++
			}
		}
		bytes += len(data)
		if n := i + 1; n >= lo && bytes > 0 {
			if dev := math.Abs(float64(support)/megabytes(int64(bytes)) - distSupportPerMB); dev < bestDev {
				best, bestDev = n, dev
			}
		}
	}
	return best
}

func (w *distPasses) mb() float64               { return w.in }
func (w *distPasses) probeCorpus() *corpus.FS   { return w.fs }
func (w *distPasses) scorers() []algo.Algorithm { return algo.All() }

// distData is the four passes' results, in report order.
type distData struct {
	fig2 experiments.Figure2Data
	fig3 map[string][]float64
	t4   []experiments.Table4Row
	t5   []experiments.Table5Row
}

func (d distData) report() string {
	return strings.Join([]string{experiments.Figure2Report(d.fig2), experiments.Figure3Report(d.fig3),
		experiments.Table4Report(d.t4), experiments.Table5Report(d.t5)}, "\n")
}

func (w *distPasses) run(workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	d := distData{experiments.Figure2(cfg), experiments.Figure3(cfg), experiments.Table4(cfg), experiments.Table5(cfg)}
	return output{d.report(), d}, nil
}

// figure3Series are Figure 3's series labels and registry algorithms,
// as experiments.Figure3 declares them.
var figure3Series = []struct{ label, algo string }{{"IP/TCP", "tcp"}, {"F255", "f255"}, {"F256", "f256"}}

// sortedDesc is experiments' descending nonzero-mass series of a PMF.
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

// replay re-runs each pass's sim.Collect walks and dist computations
// one call at a time.
func (w *distPasses) replay(r *replayer) (output, error) {
	ctx := context.Background()
	opt := sim.CollectOptions{Workers: 1, Seed: w.cfg.Seed}
	var err error
	// collect generates the corpus and runs one sim.Collect walk over it.
	collect := func(walk func(corpus.Walker) error) {
		mem := r.generate(w.fs)
		r.timed("sim.collect", r.walks, func() {
			if e := walk(mem); e != nil && err == nil {
				err = e
			}
		})
	}
	convolve := func(p, q dist.PMF) (out dist.PMF) {
		r.timed("dist.convolve", 0, func() { out = p.Convolve(q) })
		return out
	}
	pmf := func(fn func()) { r.timed("dist.pmf", 0, fn) }

	var d distData
	d.fig2 = experiments.Figure2Data{PDF: map[int][]float64{}, CDF65: map[int][]float64{}}
	var single *dist.Histogram
	for _, k := range []int{1, 2, 4} {
		var h *dist.Histogram
		collect(func(c corpus.Walker) (e error) { h, e = sim.CollectBlockHistogram(ctx, c, k, opt); return })
		if h == nil {
			return output{}, err
		}
		pmf(func() { d.fig2.PDF[k], d.fig2.CDF65[k] = h.SortedPDF(), h.CDF(65) })
		if k == 1 {
			single = h
		}
	}
	var p1 dist.PMF
	pmf(func() { p1 = dist.FromHistogram(single) })
	p2 := convolve(p1, p1)
	pmf(func() {
		d.fig2.Predict = sortedDesc(p2)
		d.fig2.TopShare = single.TopShare(65)
		d.fig2.PMaxValue, d.fig2.PMaxP = single.PMax()
	})
	for _, v := range p1.P {
		if v > 0 {
			r.counts["dist.pmf_support"]++
		}
	}

	d.fig3 = map[string][]float64{}
	for _, s := range figure3Series {
		var h *dist.Histogram
		collect(func(c corpus.Walker) (e error) {
			h, e = sim.CollectCellHistogram(ctx, c, algo.MustLookup(s.algo), opt)
			return
		})
		if h == nil {
			return output{}, err
		}
		pmf(func() {
			pdf := h.SortedPDF()
			d.fig3[s.label] = pdf[:min(len(pdf), 256)]
		})
	}

	global := func(k int) *dist.GlobalSampler {
		var g *dist.GlobalSampler
		collect(func(c corpus.Walker) (e error) { g, e = sim.CollectGlobal(ctx, c, k, opt); return })
		return g
	}
	g1 := global(1)
	if g1 == nil {
		return output{}, err
	}
	var q1, pk dist.PMF
	pmf(func() { q1 = dist.FromHistogram(g1.Histogram()) })
	pk = q1
	for k := 1; k <= 5; k++ {
		g := global(k)
		if g == nil {
			return output{}, err
		}
		row := experiments.Table4Row{K: k, Uniform: 1.0 / 65535, Measured: g.CongruentProbability()}
		pmf(func() { row.Predicted = pk.SelfMatch() })
		d.t4 = append(d.t4, row)
		if k < 5 {
			pk = convolve(pk, q1)
		}
	}

	for k := 1; k <= 4; k++ {
		g := global(k)
		var loc, nc dist.LocalStats
		collect(func(c corpus.Walker) (e error) { loc, e = sim.CollectLocal(ctx, c, k, 512, opt); return })
		collect(func(c corpus.Walker) (e error) { nc, e = sim.CollectLocalAnyCells(ctx, c, k, 512, 8, opt); return })
		if g == nil || err != nil {
			return output{}, err
		}
		d.t5 = append(d.t5, experiments.Table5Row{
			K: k, Global: g.CongruentProbability(), Local: loc.CongruentP(), ExcludingIdentical: loc.ExcludeIdenticalP(),
			NonContiguous: nc.CongruentP(), NonContiguousExcl: nc.ExcludeIdenticalP(),
		})
	}
	var report string
	r.timed("report.render", 0, func() { report = d.report() })
	return output{report, d}, err
}

// ---- netsim-battery: the paper -netsim pass ------------------------------

// netsimBattery runs experiments.NetSim: TCP over the full fault battery
// with retransmission, the same with lz-compressed payloads, and UDP
// with IP fragmentation.
type netsimBattery struct {
	cfg   experiments.Config
	scens []scenario.Scenario
	fss   []*corpus.FS
	in    float64
}

func newNetsimBattery(seed uint64, size float64) workload {
	w := &netsimBattery{cfg: experiments.Config{Scale: 4 * size, Seed: seed}}
	// The scenarios experiments.NetSim declares, at one worker.
	profile := corpus.StanfordU1().Name
	tcp := scenario.Scenario{Name: "paper-netsim-tcp", Profile: profile, Scale: w.cfg.Scale * 0.25, Seed: seed, Retrans: true}
	lz := tcp
	lz.Name, lz.Compress, lz.Retrans = "paper-netsim-tcp-lz", true, false
	udp := scenario.Scenario{Name: "paper-netsim-udpfrag", Profile: profile, Scale: w.cfg.Scale * 0.1, Mode: "udpfrag",
		Channels: []string{"bitflip", "burst", "reorder", "misinsert"}, Seed: seed}
	w.scens = []scenario.Scenario{tcp, lz, udp}
	for _, s := range w.scens {
		fs := buildFS(corpus.StanfordU1(), s.Scale, seed)
		w.fss = append(w.fss, fs)
		if s.Compress {
			continue // the raw TCP pass's corpus again
		}
		w.in += megabytes(fs.TotalBytes())
	}
	return w
}

func (w *netsimBattery) mb() float64               { return w.in }
func (w *netsimBattery) probeCorpus() *corpus.FS   { return w.fss[0] }
func (w *netsimBattery) scorers() []algo.Algorithm { return algo.All() }

func (w *netsimBattery) run(workers int) (output, error) {
	cfg := w.cfg
	cfg.Workers = workers
	d := experiments.NetSim(cfg)
	return output{experiments.NetSimReport(d), d}, conserved(d.TCP)
}

// conserved checks the retransmission loop's conservation law: every
// lane settles every sent packet, accepted or exhausted.
func conserved(t *netsim.Tally) error {
	for _, c := range t.Channels {
		for _, p := range c.Placements {
			for i, r := range append(append([]netsim.RetransTally(nil), p.Retrans...), p.Oracle) {
				if r.Accepted+r.Exhausted != c.PacketsSent {
					return fmt.Errorf("%s/%s lane %d: accepted %d + exhausted %d != sent %d",
						c.Name, p.Name, i, r.Accepted, r.Exhausted, c.PacketsSent)
				}
			}
		}
	}
	return nil
}

// replayShard drives one netsim.Shard file by file over fs and flushes
// it into a fresh tally — the cksumd stream path, which equals
// netsim.Run at the same seed.
func replayShard(r *replayer, cfg netsim.Config, fs *corpus.FS) (*netsim.Tally, error) {
	mem := r.generate(fs)
	shard := netsim.NewShard(cfg)
	tally := netsim.NewTally(cfg)
	for i, data := range mem.data {
		r.timed("netsim.file", i, func() { shard.File(i, data) })
	}
	var err error
	r.timed("netsim.flush", 0, func() { err = shard.Flush(tally) })
	for _, c := range tally.Channels {
		r.counts["netsim.trials"] += float64(c.Trials)
		r.counts["netsim.corrupted"] += float64(c.Corrupted)
		for _, p := range c.Placements {
			for _, rt := range p.Retrans {
				r.counts["netsim.transmissions"] += float64(rt.Transmissions)
			}
			r.counts["netsim.transmissions"] += float64(p.Oracle.Transmissions)
		}
	}
	return tally, err
}

func (w *netsimBattery) replay(r *replayer) (output, error) {
	tallies := make([]*netsim.Tally, len(w.scens))
	for i, s := range w.scens {
		cfg, err := s.Config()
		if err != nil {
			return output{}, err
		}
		if tallies[i], err = replayShard(r, cfg, w.fss[i]); err != nil {
			return output{}, err
		}
	}
	d := experiments.NetSimData{TCP: tallies[0], TCPLZ: tallies[1], UDP: tallies[2]}
	var report string
	r.timed("report.render", 0, func() { report = experiments.NetSimReport(d) })
	return output{report, d}, conserved(d.TCP)
}

// ---- census: the polynomial-selection census -----------------------------

// censusRun runs census.Run over Stanford /u1, as paper -census does.
type censusRun struct {
	seed uint64
	fs   *corpus.FS
}

func newCensus(seed uint64, size float64) workload {
	return &censusRun{seed: seed, fs: buildFS(corpus.StanfordU1(), 6*size, seed)}
}

func (w *censusRun) mb() float64               { return megabytes(w.fs.TotalBytes()) }
func (w *censusRun) probeCorpus() *corpus.FS   { return w.fs }
func (w *censusRun) scorers() []algo.Algorithm { return census.Algorithms() }

func (w *censusRun) run(workers int) (output, error) {
	res, err := census.Run(context.Background(), census.Config{Walker: w.fs, Seed: w.seed, Workers: workers})
	if err != nil {
		return output{}, err
	}
	return output{res.Report(), res}, nil
}

// replay drives the injection lane's netsim shard as census.Run
// configures it, then scores the tally (census.Score runs the analytic
// lane inside).
func (w *censusRun) replay(r *replayer) (output, error) {
	specs, unknown := netsim.ChannelsByName(census.Channels())
	if len(unknown) > 0 {
		return output{}, fmt.Errorf("census: unknown channels %v", unknown)
	}
	tally, err := replayShard(r, netsim.Config{
		Channels:   specs,
		Placements: []netsim.Placement{netsim.PlaceE2E},
		Algorithms: census.Algorithms(),
		Seed:       w.seed,
	}, w.fs)
	if err != nil {
		return output{}, err
	}
	var res *census.Result
	r.timed("census.score", 0, func() { res = census.Score(tally) })
	var report string
	r.timed("report.render", 0, func() { report = res.Report() })
	return output{report, res}, nil
}

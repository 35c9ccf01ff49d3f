// Command bench is the repository benchmark.  It runs four of the
// paper's passes as closed-loop workloads (each pass starts when the
// previous one returns), alternating one worker and one worker per CPU,
// prints every end-to-end metric by name with its unit, and checks each
// pass's output.  With -trace 1 it instead replays each pass at one
// worker from its own code, timing every call into a layer, and prints
// the per-layer metrics and a self-time table.
//
// Run it from the repository root; bench/README.md explains the
// workloads and metrics.
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-trace-json FILE]
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.  The exit status is 1 when
// any pass or check failed.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupLaunches is how many child processes each untraced run starts;
// setup_s is the median of their set-up times.  The last one measures.
const setupLaunches = 5

// childTimeout bounds one measuring child.
const childTimeout = 170 * time.Second

//go:embed testdata/report_sha256.txt
var goldenFile string

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed; it reaches the passes only as their Config.Seed")
	seconds := flag.Float64("seconds", 30, "measuring time per workload in seconds")
	traceFlag := flag.Int("trace", 0, "1 replaces the end-to-end run with the traced per-layer run")
	traceJSON := flag.String("trace-json", "", "with -trace 1, also write the spans to this file as Chrome trace-event JSON")
	child := flag.String("child", "", "internal: run as the measuring child process of this workload")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	names := workloadNames()
	if *workloadFlag != "all" {
		if !slices.Contains(names, *workloadFlag) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", *workloadFlag, strings.Join(names, ", "))
			os.Exit(2)
		}
		names = []string{*workloadFlag}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace %d (want 0 or 1)\n", *traceFlag)
		os.Exit(2)
	}

	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	var traces [][]span
	for _, name := range names {
		var res runResult
		defs := endToEnd
		if *traceFlag == 1 {
			w, err := prepare(name, *seed, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			var spans []span
			res, spans = traced(w, newRunResult(name, *seed), *seconds)
			traces = append(traces, spans)
			defs = perLayer
		} else {
			res = measure(name, *seed, *seconds)
		}
		os.Stdout.WriteString(res.text)
		for _, d := range defs {
			v := res.metrics[d.name]
			line := fmt.Sprintf("%s %s %.6g %s", name, d.name, v, d.unit)
			if xs := res.samples[d.name]; xs != nil {
				q1, q3 := quartiles(xs)
				line += fmt.Sprintf(" median=%.6g q1=%.6g q3=%.6g n=%d", median(xs), q1, q3, len(xs))
			}
			fmt.Println(line)
			key := d.name
			if len(names) > 1 {
				key = name + "/" + d.name
			}
			summary.Metrics[key] = metricValue{v, d.unit}
		}
		fmt.Printf("%s report_sha256 %d %s\n", name, *seed, res.checks.first)
		fmt.Printf("%s passes attempted=%d failed=%d\n", name, res.checks.attempted, res.checks.failed)
		summary.Attempted += res.checks.attempted
		summary.Failed += res.checks.failed
	}
	if *traceJSON != "" {
		if err := writeChromeFile(*traceJSON, names, traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			summary.Failed++
		}
	}
	summary.Correct = summary.Failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's run: its metrics, the per-pass samples
// behind the throughput metrics, its checks, and any text to print
// before the metric lines.
type runResult struct {
	metrics map[string]float64
	samples map[string][]float64
	checks  checks
	text    string
}

func newRunResult(name string, seed uint64) runResult {
	return runResult{
		metrics: map[string]float64{},
		samples: map[string][]float64{},
		checks:  checks{workload: name, golden: goldenDigest(name, seed)},
	}
}

// checks counts attempted and failed passes.  A pass fails when it
// errors, or when its report's SHA-256 differs from the committed one
// for its seed or from the run's first pass: every worker count must
// render the same bytes.
type checks struct {
	workload          string
	attempted, failed int
	golden, first     string
}

func (c *checks) pass(digest, err string) {
	c.attempted++
	switch {
	case err != "":
		c.fail(err)
	case c.golden != "" && digest != c.golden:
		c.fail(fmt.Sprintf("report sha256 %s, committed %s", digest, c.golden))
	case c.first != "" && digest != c.first:
		c.fail("report differs from the run's first pass")
	}
	if c.first == "" && err == "" {
		c.first = digest
	}
}

func (c *checks) fail(msg string) {
	c.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %s\n", c.workload, msg)
}

// goldenDigest returns the committed report SHA-256 for a workload and
// seed, or "" when none is committed.  Lines have the form the run
// prints: "<workload> report_sha256 <seed> <hex>".
func goldenDigest(name string, seed uint64) string {
	for _, line := range strings.Split(goldenFile, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == name && f[1] == "report_sha256" && f[2] == strconv.FormatUint(seed, 10) {
			return f[3]
		}
	}
	return ""
}

// passRecord is one line of the measuring child's output: first the
// set-up marker with the input size, then one record per pass.
type passRecord struct {
	Ready  bool    `json:"ready,omitempty"`
	MB     float64 `json:"mb,omitempty"`
	WallS  float64 `json:"wall_s,omitempty"`
	CPUS   float64 `json:"cpu_s,omitempty"`
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// runChild prepares the workload, reports that set-up is done, then
// runs passes alternating one worker and one per CPU until the next
// pass would end past the budget.  A budget of 0 stops after set-up.
func runChild(name string, seed uint64, seconds float64) error {
	start := time.Now()
	w, err := prepare(name, seed, 1)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(passRecord{Ready: true, MB: w.mb()}); err != nil {
		return err
	}
	if seconds <= 0 {
		return nil
	}
	workers := [2]int{1, runtime.NumCPU()}
	var last [2]float64
	for i := 0; ; i++ {
		slot := i % 2
		if i >= 2 && time.Since(start).Seconds()+last[slot] > seconds {
			return nil
		}
		rec, _ := timePass(w, workers[slot])
		last[slot] = rec.WallS
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
}

// timePass runs one pass and records its wall and CPU time and the
// SHA-256 of its report.
func timePass(w workload, workers int) (passRecord, output) {
	cpu0, t0 := cpuSeconds(), time.Now()
	out, err := safely(func() (output, error) { return w.run(workers) })
	rec := passRecord{WallS: time.Since(t0).Seconds(), CPUS: cpuSeconds() - cpu0, Digest: digest(out.report)}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec, out
}

// safely runs fn and returns a panic from it as an error: the passes
// panic on internal errors, which the benchmark counts as a failed pass.
func safely(fn func() (output, error)) (out output, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// launched is what one child process reported.
type launched struct {
	setup  float64 // seconds from exec to the set-up marker
	mb     float64
	passes []passRecord
	rssMB  float64
	err    error
}

// launch runs one measuring child and collects its records.
func launch(name string, seed uint64, seconds float64) launched {
	var l launched
	self, err := os.Executable()
	if err != nil {
		l.err = err
		return l
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', 3, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		l.err = err
		return l
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		l.err = err
		return l
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var rec passRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			l.err = fmt.Errorf("child output %q: %w", sc.Text(), err)
			continue
		}
		if rec.Ready {
			l.setup, l.mb = time.Since(start).Seconds(), rec.MB
			continue
		}
		l.passes = append(l.passes, rec)
	}
	if err := cmd.Wait(); err != nil {
		l.err = fmt.Errorf("child: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		l.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
	}
	if l.err == nil && l.setup == 0 {
		l.err = errors.New("child exited before set-up finished")
	}
	return l
}

// measure is the untraced end-to-end run: setupLaunches child processes
// in turn, the last of which runs passes for what remains of seconds.
func measure(name string, seed uint64, seconds float64) runResult {
	res := newRunResult(name, seed)
	start := time.Now()
	var setups []float64
	var l launched
	for i := 0; i < setupLaunches; i++ {
		budget := 0.0
		if i == setupLaunches-1 {
			budget = seconds - time.Since(start).Seconds()
		}
		l = launch(name, seed, budget)
		res.checks.attempted++
		if l.err != nil {
			res.checks.fail(l.err.Error())
		}
		setups = append(setups, l.setup)
	}
	res.addEndToEnd(setups, l)
	return res
}

// addEndToEnd checks the measuring child's passes and derives the
// end-to-end metrics from them and the launches' set-up times.  The
// child alternates, so even passes ran one worker and odd ones nproc.
//
// Throughput and CPU cost come from each worker count's fastest pass.
// The passes are deterministic CPU-bound work, so on a shared machine
// noise only ever adds time, and other tenants slow whole stretches of
// a run by 10-25%: the fastest pass is the estimate a slow stretch
// moves least.  The median and quartiles are printed beside it.
func (res *runResult) addEndToEnd(setups []float64, l launched) {
	var mbps, cpu [2][]float64
	for i, p := range l.passes {
		res.checks.pass(p.Digest, p.Err)
		mbps[i%2] = append(mbps[i%2], l.mb/p.WallS)
		cpu[i%2] = append(cpu[i%2], p.CPUS)
	}
	res.samples["mb_per_s_w1"], res.samples["mb_per_s"] = mbps[0], mbps[1]
	res.metrics["mb_per_s_w1"], res.metrics["mb_per_s"] = maxOf(mbps[0]), maxOf(mbps[1])
	res.metrics["cpu_s_per_mb"] = 0
	if l.mb > 0 {
		res.metrics["cpu_s_per_mb"] = (minOf(cpu[0]) + minOf(cpu[1])) / 2 / l.mb
	}
	res.metrics["peak_rss_mb"] = l.rssMB
	res.metrics["setup_s"] = median(setups)
}

// traced is the per-layer run, in process: cycles of an untraced
// one-worker pass, an untraced nproc pass and a traced replay, repeated
// while the next cycle fits in seconds, then the layer probes.  Each
// replay must reproduce its cycle's one-worker pass exactly.
func traced(w workload, res runResult, seconds float64) (runResult, []span) {
	start := time.Now()
	tr := newTracer()
	var w1, wN, walls, allocs, gcs []float64
	var layers []map[string]float64
	secsTotal, callsTotal, wallTotal := map[string]float64{}, map[string]int{}, 0.0
	var cycle float64
	for i := 0; i == 0 || time.Since(start).Seconds()+cycle < seconds; i++ {
		c0 := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, ref := timePass(w, 1)
		runtime.ReadMemStats(&after)
		res.checks.pass(rec.Digest, rec.Err)
		w1 = append(w1, rec.WallS)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/w.mb())
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
		recN, _ := timePass(w, runtime.NumCPU())
		res.checks.pass(recN.Digest, recN.Err)
		wN = append(wN, recN.WallS)

		r := newReplayer(tr)
		tr.begin("pass", i)
		root := tr.top()
		got, err := safely(func() (output, error) { return w.replay(r) })
		tr.end()
		res.checks.attempted++
		if err == nil && (got.report != ref.report || !reflect.DeepEqual(got.detail, ref.detail)) {
			err = errors.New("traced replay differs from the pass it replays")
		}
		if err != nil {
			res.checks.fail("replay: " + err.Error())
		}
		self := selfTimes(tr.spans)
		secs, calls := layerTimes(tr.spans, self, root)
		wall := float64(tr.spans[root].end-tr.spans[root].start) / 1e9
		walls = append(walls, wall)
		layers = append(layers, passLayers(secs, calls, wall, float64(self[root])/1e9, r))
		for k, v := range secs {
			secsTotal[k] += v
			callsTotal[k] += calls[k]
		}
		wallTotal += wall
		cycle = time.Since(c0).Seconds()
	}
	for _, d := range perLayer {
		var xs []float64
		for _, l := range layers {
			if v, ok := l[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if xs != nil {
			res.metrics[d.name] = median(xs)
		}
	}
	for k, v := range probes(w) {
		res.metrics[k] = v
	}
	res.metrics["census.analyze_share"] = res.metrics["census.analyze_s"] / median(walls)
	// Fastest passes, as for the end-to-end metrics.
	res.metrics["sim.speedup"] = minOf(w1) / minOf(wN)
	res.metrics["trace.overhead_ratio"] = minOf(walls)/minOf(w1) - 1
	res.metrics["go.alloc_bytes_per_mb"] = median(allocs)
	res.metrics["go.gc_cycles"] = median(gcs)
	var b strings.Builder
	writeSelfTable(&b, res.checks.workload, secsTotal, callsTotal, wallTotal)
	res.text = b.String()
	return res, tr.spans
}

func writeChromeFile(path string, names []string, traces [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, names, traces); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

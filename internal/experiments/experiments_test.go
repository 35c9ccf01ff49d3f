package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"realsum/internal/dist"
	"realsum/internal/netsim"
	"realsum/internal/report"
	"realsum/internal/sim"
)

// tiny runs the sim-heavy experiments at 5% scale so the full suite
// stays fast; small gives the distribution experiments enough blocks
// for their pair estimators to stabilize.  Assertions are about shape,
// not magnitude.
var (
	tiny  = Config{Scale: 0.05}
	small = Config{Scale: 0.4}
)

func TestTables123ShapeClaims(t *testing.T) {
	results := Tables123(tiny)
	if len(results) != 19 {
		t.Fatalf("expected 19 systems (9 NSC + 8 SICS + 2 Stanford), got %d", len(results))
	}
	var worst float64
	for _, r := range results {
		if r.Remaining == 0 {
			t.Errorf("%s: no remaining splices", r.System)
			continue
		}
		rate, _ := r.MissRate(r.MissedByChecksum)
		if rate > worst {
			worst = rate
		}
		// CRC-32 misses should be zero (rate 2^-32 needs ~10^9 splices
		// to observe even once).
		if r.MissedByCRC != 0 {
			t.Errorf("%s: CRC missed %d", r.System, r.MissedByCRC)
		}
	}
	// At least one system should show the paper's 10–100× degradation
	// over the uniform 0.0015%.
	if worst < 10.0/65536 {
		t.Errorf("worst TCP miss rate %.6g shows no degradation over uniform", worst)
	}
	for _, render := range []string{
		Table1Report(results), Table2Report(results), Table3Report(results),
	} {
		if !strings.Contains(render, "Missed by TCP") {
			t.Error("report missing expected rows")
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	d := Figure2(tiny)
	for _, k := range []int{1, 2, 4} {
		if len(d.PDF[k]) == 0 {
			t.Fatalf("k=%d: empty PDF", k)
		}
		// Sorted descending.
		for i := 1; i < len(d.PDF[k]); i++ {
			if d.PDF[k][i] > d.PDF[k][i-1] {
				t.Fatalf("k=%d: PDF not sorted at %d", k, i)
			}
		}
		if len(d.CDF65[k]) == 0 || d.CDF65[k][len(d.CDF65[k])-1] > 1+1e-9 {
			t.Fatalf("k=%d: bad CDF", k)
		}
	}
	// §4.3: hot spots — the top 65 values carry far more than the
	// uniform 65/65535 ≈ 0.1%.
	if d.TopShare < 0.01 {
		t.Errorf("top-65 share %.4f shows no hot spots", d.TopShare)
	}
	// Larger blocks are more uniform: PMax decreases with k.
	if d.PDF[4][0] > d.PDF[1][0] {
		t.Errorf("PMax grew with block size: k=1 %.4g, k=4 %.4g", d.PDF[1][0], d.PDF[4][0])
	}
	// The k=2 measured distribution should be less uniform than the
	// i.i.d. prediction (local correlation, §4.4).
	if len(d.Predict) > 0 && d.PDF[2][0] < d.Predict[0] {
		t.Errorf("measured k=2 PMax %.4g below i.i.d. prediction %.4g", d.PDF[2][0], d.Predict[0])
	}
	if !strings.Contains(Figure2Report(d), "most common cell value") {
		t.Error("Figure2Report malformed")
	}
}

func TestFigure3Shape(t *testing.T) {
	d := Figure3(tiny)
	for _, name := range []string{"IP/TCP", "F255", "F256"} {
		if len(d[name]) == 0 {
			t.Fatalf("%s: empty PDF", name)
		}
		// All three should show comparable single-cell non-uniformity
		// (§5.2: "a similar non-uniform curve").
		if d[name][0] < 0.001 {
			t.Errorf("%s: PMax %.5g suspiciously uniform", name, d[name][0])
		}
	}
	if !strings.Contains(Figure3Report(d), "F255") {
		t.Error("Figure3Report malformed")
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4(small)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.K != i+1 {
			t.Errorf("row %d: K=%d", i, r.K)
		}
		if r.Predicted < r.Uniform*0.99 {
			t.Errorf("k=%d: predicted %.3g below uniform %.3g", r.K, r.Predicted, r.Uniform)
		}
	}
	// Small-k estimates have plenty of pairs: measured ≥ uniform there
	// (higher k suffers sampling noise at test scale).
	for _, r := range rows[:3] {
		if r.Measured < r.Uniform {
			t.Errorf("k=%d: measured %.3g below uniform %.3g", r.K, r.Measured, r.Uniform)
		}
	}
	// Predicted tends toward uniform as k grows.
	if rows[4].Predicted > rows[0].Predicted {
		t.Error("prediction should become more uniform with k")
	}
	// Measured stays above predicted at k=2 (the paper's locality gap).
	if rows[1].Measured < rows[1].Predicted {
		t.Errorf("k=2: measured %.3g below predicted %.3g — locality gap missing",
			rows[1].Measured, rows[1].Predicted)
	}
	if !strings.Contains(Table4Report(rows), "Measured") {
		t.Error("Table4Report malformed")
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5(small)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ExcludingIdentical > r.Local {
			t.Errorf("k=%d: excluding identical cannot exceed local", r.K)
		}
	}
	// The locality effect is unambiguous at small k, where the window
	// yields plenty of pairs.
	for _, r := range rows[:2] {
		if r.Local < r.Global {
			t.Errorf("k=%d: local %.4g below global %.4g — locality effect missing",
				r.K, r.Local, r.Global)
		}
	}
	if !strings.Contains(Table5Report(rows), "Locally Congruent") {
		t.Error("Table5Report malformed")
	}
}

// TestDistributionReportsDeterministicAcrossWorkers is the tentpole
// guarantee: the rendered figure/table text — not just the numbers — is
// byte-identical at any worker count.
func TestDistributionReportsDeterministicAcrossWorkers(t *testing.T) {
	passes := []struct {
		name string
		run  func(cfg Config) string
	}{
		{"figure2", func(cfg Config) string { return Figure2Report(Figure2(cfg)) }},
		{"figure3", func(cfg Config) string { return Figure3Report(Figure3(cfg)) }},
		{"table4", func(cfg Config) string { return Table4Report(Table4(cfg)) }},
		{"table5", func(cfg Config) string { return Table5Report(Table5(cfg)) }},
		{"table6", func(cfg Config) string { return Table6Report(Table6(cfg)) }},
	}
	for _, p := range passes {
		base := p.run(Config{Scale: 0.05, Workers: 1})
		for _, w := range []int{2, 8} {
			if got := p.run(Config{Scale: 0.05, Workers: w}); got != base {
				t.Errorf("%s: output differs between 1 and %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s",
					p.name, w, base, w, got)
			}
		}
	}
}

func TestTable6Shape(t *testing.T) {
	systems := Table6(tiny)
	if len(systems) != 4 {
		t.Fatalf("systems = %d", len(systems))
	}
	for _, s := range systems {
		for i := range s.K {
			if s.Corrected[i] > s.ExcludeIdentical[i]+1e-12 {
				t.Errorf("%s k=%d: correction increased the prediction", s.System, s.K[i])
			}
		}
	}
	if !strings.Contains(Table6Report(systems), "Corrected") {
		t.Error("Table6Report malformed")
	}
}

func TestTable7CompressionRestoresUniformity(t *testing.T) {
	plain, comp := Table7(tiny)
	pr, _ := plain.MissRate(plain.MissedByChecksum)
	cr, _ := comp.MissRate(comp.MissedByChecksum)
	if pr > 0 && cr > pr {
		t.Errorf("compression raised the miss rate: %.4g -> %.4g", pr, cr)
	}
	// Compressed should be within a couple of counts of zero at this
	// scale (uniform expectation ≈ remaining/65536).
	expected := float64(comp.Remaining) / 65536
	if float64(comp.MissedByChecksum) > 10*(expected+1) {
		t.Errorf("compressed misses %d far above uniform expectation %.2f",
			comp.MissedByChecksum, expected)
	}
	if !strings.Contains(Table7Report(plain, comp), "compressed") {
		t.Error("Table7Report malformed")
	}
}

func TestTable8FletcherWins(t *testing.T) {
	rows := Table8(tiny)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var tcpTotal, f256Total uint64
	var remTCP, remF256 uint64
	for _, r := range rows {
		tcp, f256 := r.Get("tcp"), r.Get("f256")
		tcpTotal += tcp.MissedByChecksum
		f256Total += f256.MissedByChecksum
		remTCP += tcp.Remaining
		remF256 += f256.Remaining
	}
	if remTCP == 0 || remF256 == 0 {
		t.Fatal("no remaining splices")
	}
	// Aggregate shape: Fletcher-256 beats TCP.
	if float64(f256Total)/float64(remF256) > float64(tcpTotal)/float64(remTCP) {
		t.Errorf("Fletcher-256 aggregate miss rate above TCP: %d/%d vs %d/%d",
			f256Total, remF256, tcpTotal, remTCP)
	}
	if !strings.Contains(Table8Report(rows), "F-256") {
		t.Error("Table8Report malformed")
	}
}

func TestTable9TrailerWins(t *testing.T) {
	rows := Table9(tiny)
	var hdr, trl, remH, remT uint64
	for _, r := range rows {
		hdr += r.Header.MissedByChecksum
		trl += r.Trailer.MissedByChecksum
		remH += r.Header.Remaining
		remT += r.Trailer.Remaining
	}
	if remH == 0 || remT == 0 {
		t.Fatal("no remaining splices")
	}
	if float64(trl)/float64(remT) > float64(hdr)/float64(remH) {
		t.Errorf("trailer aggregate miss rate above header: %d/%d vs %d/%d", trl, remT, hdr, remH)
	}
	if !strings.Contains(Table9Report(rows), "Trailer Misses") {
		t.Error("Table9Report malformed")
	}
}

func TestTable10Asymmetry(t *testing.T) {
	d := Table10(tiny)
	if d.Header.IdenticalFailedChecksum != 0 {
		t.Errorf("header mode rejected %d identical splices", d.Header.IdenticalFailedChecksum)
	}
	if d.Trailer.Identical > 0 && d.Trailer.IdenticalFailedChecksum == 0 {
		t.Error("trailer mode should reject identical splices")
	}
	if !strings.Contains(Table10Report(d), "data identical") {
		t.Error("Table10Report malformed")
	}
}

func TestEffectiveBitsHeadline(t *testing.T) {
	results := Tables123(tiny)
	rows := EffectiveBits(results)
	if len(rows) != len(results) {
		t.Fatal("row count mismatch")
	}
	// §7: on real data the 16-bit checksum behaves like a much narrower
	// check on at least some systems (the paper says ≈10 bits).
	min := math.Inf(1)
	for _, r := range rows {
		if r.MissRate > 0 && r.EffectiveBits < min {
			min = r.EffectiveBits
		}
	}
	if math.IsInf(min, 1) {
		t.Skip("no misses at this scale")
	}
	if min > 15 {
		t.Errorf("weakest system still shows %.1f effective bits — degradation missing", min)
	}
	if !strings.Contains(EffectiveBitsReport(rows), "effective bits") {
		t.Error("EffectiveBitsReport malformed")
	}
}

// TestUnknownRatesRenderDash pins the honest-rate rule for the rows that
// carry a miss rate: with no remaining splice (splice.Counts, Table 6's
// per-length Actual), no corrupted reassembly (ipfrag.SwapResult) or no
// splice at all (Table 10's identical-data rate, §5.5's missed-splice
// share) the rate is unknown and renders "-", not "0" or "inf" bits.
func TestUnknownRatesRenderDash(t *testing.T) {
	cells := func(report, system string) []string {
		for _, line := range strings.Split(report, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == system {
				return f
			}
		}
		t.Fatalf("no %q row in:\n%s", system, report)
		return nil
	}
	rows := EffectiveBits([]sim.Result{{System: "empty"}})
	if f := cells(EffectiveBitsReport(rows), "empty"); f[1] != "-" || f[2] != "-" {
		t.Errorf("effective-bits row %q, want rate and bits \"-\"", f)
	}
	frag := FragSwapReport([]FragSwapRow{
		{Algorithm: "tcp", FragMissRate: 0.5, FragOK: true},
		{Algorithm: "f256", AAL5MissRate: 0.25, AAL5OK: true},
	})
	if f := cells(frag, "tcp"); f[1] != report.Percent(0.5) || f[2] != "-" {
		t.Errorf("frag-swap row %q, want the frag rate and the AAL5 rate \"-\"", f)
	}
	if f := cells(frag, "f256"); f[1] != "-" || f[2] != report.Percent(0.25) {
		t.Errorf("frag-swap row %q, want the frag rate \"-\" and the AAL5 rate", f)
	}
	t6 := Table6Report([]Table6System{{
		System: "sys", K: []int{1, 2},
		PredictedGlobal: []float64{0.1, 0.1}, MeasuredGlobal: []float64{0.1, 0.1},
		LocalCongruent: []float64{0.1, 0.1}, ExcludeIdentical: []float64{0.1, 0.1},
		Corrected: []float64{0.1, 0.1},
		Actual:    []float64{0.25, 0}, ActualOK: []bool{true, false},
	}})
	if f := cells(t6, "1"); f[len(f)-1] != report.Percent(0.25) {
		t.Errorf("Table 6 k=1 row %q, want Actual %s", f, report.Percent(0.25))
	}
	if f := cells(t6, "2"); f[len(f)-1] != "-" {
		t.Errorf("Table 6 k=2 row %q, want Actual \"-\"", f)
	}
	// Two empty files through the -compress stage: bytes out, no ratio.
	lz := netsim.Tally{Compressed: true, Comp: netsim.CompStats{Files: 2, CompBytes: 2}}
	if got, _, _ := strings.Cut(lz.Report(), "\n"); got != "lz payload stage: 2 files, 0 -> 2 bytes, ratio min=- mean=- max=-" {
		t.Errorf("lz summary %q, want every ratio \"-\"", got)
	}
	// One attributed file and no missed splice: the missed share is 0/0.
	loc := LocalityReport(LocalityOfFailure{Result: sim.Result{
		Files:      1,
		WorstFiles: []sim.FileMisses{{Path: "only", Remaining: 0}},
	}})
	if f := cells(loc, "only"); f[len(f)-1] != "-" {
		t.Errorf("locality row %q, want rate \"-\"", f)
	}
	if want := "top 1 file (100.0% of all files) carry - of all missed splices"; !strings.Contains(loc, want) {
		t.Errorf("locality summary missing %q in:\n%s", want, loc)
	}
	var trailer sim.Result
	trailer.Total, trailer.IdenticalFailedChecksum = 4, 1
	t10 := Table10Report(Table10Data{Trailer: trailer})
	for _, line := range strings.Split(t10, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "Fails checksum, data identical (%)") {
			continue
		}
		if f := strings.Fields(line); f[len(f)-2] != "-" || f[len(f)-1] != report.Percent(0.25) {
			t.Errorf("Table 10 identical-data row %q, want header \"-\" (no splice) and trailer %s", f, report.Percent(0.25))
		}
		return
	}
	t.Fatalf("no identical-data rate row in:\n%s", t10)
}

func TestAblations(t *testing.T) {
	d := Ablations(tiny)
	zr, _ := d.ZeroIPHeader.MissRate(d.ZeroIPHeader.MissedByChecksum)
	br, _ := d.Baseline.MissRate(d.Baseline.MissedByChecksum)
	if zr < br {
		t.Errorf("§6.2: zeroed IP header rate %.4g below baseline %.4g", zr, br)
	}
	// §6.3: non-inversion makes little difference; allow a wide factor.
	nr, _ := d.NoInvert.MissRate(d.NoInvert.MissedByChecksum)
	if br > 0 && (nr > br*20 || br > nr*20+1) {
		t.Errorf("§6.3: non-inverted rate %.4g wildly differs from baseline %.4g", nr, br)
	}
	if !strings.Contains(AblationsReport(d), "zeroed IP header") {
		t.Error("AblationsReport malformed")
	}
}

func TestPathologicalCases(t *testing.T) {
	rows := Pathological(tiny)
	if len(rows) != 3 {
		t.Fatal("want 3 pathological corpora")
	}
	var pbm PathologicalRow
	for _, r := range rows {
		if strings.Contains(r.Corpus, "pbm") {
			pbm = r
		}
	}
	// §5.5's dramatic case: on 0x00/0xFF bitmaps, Fletcher-255 performs
	// WORSE than the TCP checksum.
	f255res, tcpres := pbm.Get("f255"), pbm.Get("tcp")
	f255, _ := f255res.MissRate(f255res.MissedByChecksum)
	tcp, _ := tcpres.MissRate(tcpres.MissedByChecksum)
	if f255 <= tcp {
		t.Errorf("PBM corpus: Fletcher-255 rate %.4g not above TCP %.4g", f255, tcp)
	}
	if !strings.Contains(PathologicalReport(rows), "pbm") {
		t.Error("PathologicalReport malformed")
	}
}

// Get returns the result for one registry name; it panics on a name the
// row does not carry, which is always a programming error.
func (r Table8Row) Get(name string) sim.Result {
	for _, e := range r.Results {
		if e.Algo == name {
			return e.Res
		}
	}
	panic(fmt.Sprintf("experiments: row %q has no algorithm %q", r.System, name))
}

// Get returns the result for one registry name (panics if absent).
func (r PathologicalRow) Get(name string) sim.Result {
	for _, e := range r.Results {
		if e.Algo == name {
			return e.Res
		}
	}
	panic(fmt.Sprintf("experiments: row %q has no algorithm %q", r.Corpus, name))
}

// TestConvolveCancelled: like the collection passes, a prediction step
// panics with the context's error once the Config's Ctx is cancelled.
func TestConvolveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := dist.NewHistogram()
	h.Add(7)
	p := dist.FromHistogram(h)
	defer func() {
		if r := recover(); r != context.Canceled {
			t.Errorf("convolve panicked with %v, want context.Canceled", r)
		}
	}()
	Config{Ctx: ctx}.convolve(p, p)
}

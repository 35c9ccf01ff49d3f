// Package realsum's root benchmark harness regenerates every table and
// figure of the paper's evaluation (one Benchmark per experiment) plus
// the design-choice ablations called out in DESIGN.md; the §2
// throughput comparison is BenchmarkSum in internal/algo.  Each
// benchmark iteration runs the complete experiment at a reduced corpus
// scale and reports the headline shape metric via b.ReportMetric, so
// `go test -bench=.` both times the harness and prints the reproduced
// results.
//
// The full-scale numbers live in EXPERIMENTS.md and come from
// `go run ./cmd/paper`.
package realsum

import (
	"fmt"
	"strings"
	"testing"

	"realsum/internal/corpus"
	"realsum/internal/crc"
	"realsum/internal/experiments"
	"realsum/internal/inet"
	"realsum/internal/sim"
	"realsum/internal/splice"
	"realsum/internal/tcpip"
)

// benchScale keeps each iteration under a couple of seconds.
var benchScale = experiments.Config{Scale: 0.05}

// distScale gives the distribution experiments enough blocks.
var distScale = experiments.Config{Scale: 0.25}

// resultOf returns the result for one registry name in an experiment
// row's per-algorithm results.
func resultOf(rs []experiments.AlgResult, name string) sim.Result {
	for _, e := range rs {
		if e.Algo == name {
			return e.Res
		}
	}
	panic(fmt.Sprintf("no result for algorithm %q", name))
}

// checksumMissRate is the transport-checksum miss rate as a metric
// value; a run with no remaining splices reports 0.
func checksumMissRate(c splice.Counts) float64 {
	rate, _ := c.MissRate(c.MissedByChecksum)
	return rate
}

// ---------------------------------------------------------------------
// Tables 1–3: the CRC + TCP splice classification per site.

func BenchmarkTables123(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Tables123(benchScale)
		var missed, remaining uint64
		for _, r := range results {
			missed += r.MissedByChecksum
			remaining += r.Remaining
		}
		if remaining == 0 {
			b.Fatal("no splices")
		}
		b.ReportMetric(float64(missed)/float64(remaining), "tcp-miss-rate")
	}
}

// ---------------------------------------------------------------------
// Figure 2: checksum distribution over cell blocks + prediction.

func BenchmarkFigure2_Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure2(distScale)
		b.ReportMetric(d.PMaxP, "pmax-cell")
		b.ReportMetric(d.TopShare, "top65-share")
	}
}

// ---------------------------------------------------------------------
// Figure 3: TCP vs Fletcher cell PDFs.

func BenchmarkFigure3_FletcherPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure3(distScale)
		b.ReportMetric(d["IP/TCP"][0], "pmax-tcp")
		b.ReportMetric(d["F255"][0], "pmax-f255")
		b.ReportMetric(d["F256"][0], "pmax-f256")
	}
}

// ---------------------------------------------------------------------
// Table 4: uniform vs predicted vs measured match probabilities.

func BenchmarkTable4_MatchProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(distScale)
		b.ReportMetric(rows[0].Measured, "k1-measured")
		b.ReportMetric(rows[3].Measured, "k4-measured")
		b.ReportMetric(rows[3].Predicted, "k4-predicted")
	}
}

// ---------------------------------------------------------------------
// Table 5: locality of congruence.

func BenchmarkTable5_Locality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5(distScale)
		b.ReportMetric(rows[0].Global, "k1-global")
		b.ReportMetric(rows[0].Local, "k1-local")
		b.ReportMetric(rows[0].ExcludingIdentical, "k1-excl-identical")
	}
}

// ---------------------------------------------------------------------
// Table 6: predicted vs actual splice failure by substitution length.

func BenchmarkTable6_PredictVsActual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		systems := experiments.Table6(benchScale)
		s := systems[0]
		b.ReportMetric(s.ExcludeIdentical[0], "k1-predicted")
		b.ReportMetric(s.Actual[0], "k1-actual")
	}
}

// ---------------------------------------------------------------------
// Table 7: compression restores near-uniform behaviour.

func BenchmarkTable7_Compressed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, comp := experiments.Table7(benchScale)
		b.ReportMetric(checksumMissRate(plain.Counts), "plain-miss-rate")
		b.ReportMetric(checksumMissRate(comp.Counts), "compressed-miss-rate")
	}
}

// ---------------------------------------------------------------------
// Table 8: Fletcher vs TCP.

func BenchmarkTable8_Fletcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(benchScale)
		var tcp, f255, f256, rem uint64
		for _, r := range rows {
			tcp += resultOf(r.Results, "tcp").MissedByChecksum
			f255 += resultOf(r.Results, "f255").MissedByChecksum
			f256 += resultOf(r.Results, "f256").MissedByChecksum
			rem += resultOf(r.Results, "tcp").Remaining
		}
		b.ReportMetric(float64(tcp)/float64(rem), "tcp-miss-rate")
		b.ReportMetric(float64(f255)/float64(rem), "f255-miss-rate")
		b.ReportMetric(float64(f256)/float64(rem), "f256-miss-rate")
	}
}

// ---------------------------------------------------------------------
// Table 9: trailer vs header placement.

func BenchmarkTable9_Trailer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table9(benchScale)
		var hdr, trl, rem uint64
		for _, r := range rows {
			hdr += r.Header.MissedByChecksum
			trl += r.Trailer.MissedByChecksum
			rem += r.Header.Remaining
		}
		b.ReportMetric(float64(hdr)/float64(rem), "header-miss-rate")
		b.ReportMetric(float64(trl)/float64(rem), "trailer-miss-rate")
	}
}

// ---------------------------------------------------------------------
// Table 10: the false-positive/false-negative 2×2.

func BenchmarkTable10_FalsePositive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Table10(benchScale)
		b.ReportMetric(float64(d.Header.IdenticalFailedChecksum), "header-rejected-identical")
		b.ReportMetric(float64(d.Trailer.IdenticalFailedChecksum), "trailer-rejected-identical")
		b.ReportMetric(float64(d.Trailer.MissedByChecksum), "trailer-missed")
	}
}

// ---------------------------------------------------------------------
// §7: effective bits of the TCP checksum on real data vs CRC-10.

func BenchmarkEffectiveBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Tables123(benchScale)
		rows := experiments.EffectiveBits(results)
		worst := 64.0
		for _, r := range rows {
			if r.MissRate > 0 && r.EffectiveBits < worst {
				worst = r.EffectiveBits
			}
		}
		b.ReportMetric(worst, "worst-effective-bits")
		b.ReportMetric(10, "crc10-uniform-bits")
	}
}

// ---------------------------------------------------------------------
// §6.2 / §6.3 ablations.

func BenchmarkAblation_ZeroedIPHeader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Ablations(benchScale)
		b.ReportMetric(checksumMissRate(d.Baseline.Counts), "filled-miss-rate")
		b.ReportMetric(checksumMissRate(d.ZeroIPHeader.Counts), "zeroed-miss-rate")
	}
}

func BenchmarkAblation_NoInvert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Ablations(benchScale)
		b.ReportMetric(checksumMissRate(d.Baseline.Counts), "inverted-miss-rate")
		b.ReportMetric(checksumMissRate(d.NoInvert.Counts), "noninverted-miss-rate")
	}
}

// ---------------------------------------------------------------------
// §5.5 pathological data patterns.

func BenchmarkPathological_PBM(b *testing.B)   { benchPathological(b, "pbm") }
func BenchmarkPathological_PSHex(b *testing.B) { benchPathological(b, "pshex") }
func BenchmarkPathological_Gmon(b *testing.B)  { benchPathological(b, "gmon") }

func benchPathological(b *testing.B, which string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows := experiments.Pathological(experiments.Config{Scale: 0.25})
		for _, r := range rows {
			if !strings.Contains(r.Corpus, which) {
				continue
			}
			tcp, f255, f256 := resultOf(r.Results, "tcp"), resultOf(r.Results, "f255"), resultOf(r.Results, "f256")
			b.ReportMetric(checksumMissRate(tcp.Counts), "tcp-miss-rate")
			b.ReportMetric(checksumMissRate(f255.Counts), "f255-miss-rate")
			b.ReportMetric(checksumMissRate(f256.Counts), "f256-miss-rate")
		}
	}
}

// ---------------------------------------------------------------------
// DESIGN.md ablation: incremental per-cell checksum state vs full
// materialized recomputation per splice.

func BenchmarkAblation_PartialVsFull(b *testing.B) {
	// One adjacent pair of 256-byte packets enumerated with the
	// incremental engine...
	flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	p1 := flow.NextPacket(nil, payload)
	p2 := flow.NextPacket(nil, payload)
	cfg := splice.Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			splice.EnumeratePair(p1, p2, cfg)
		}
	})
	// ...vs the steady-state production path: one warm enumerator reused
	// across pairs (affine CRC slot tables + zero allocation).
	b.Run("reused-enumerator", func(b *testing.B) {
		e := splice.NewEnumerator()
		e.Pair(p1, p2, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Pair(p1, p2, cfg)
		}
	})
	// ...vs the naive cost model: 924 splices × recomputing sum+CRC
	// over the full 336-byte PDU each.
	crc32tab := crc.New(crc.CRC32)
	b.Run("full-recompute", func(b *testing.B) {
		pdu := make([]byte, 7*48)
		copy(pdu, p1)
		for i := 0; i < b.N; i++ {
			for s := 0; s < 924; s++ {
				inet.Sum(pdu)
				crc32tab.Checksum(pdu)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Extension experiments: §7's end-to-end loss-policy argument and the
// Adler-32 generation comparison.

func BenchmarkExtension_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.EndToEnd(experiments.Config{Scale: 0.3})
		for _, r := range rows {
			switch r.Name {
			case "random":
				b.ReportMetric(float64(r.Pipeline.CRC+r.Pipeline.Checksum), "random-splice-candidates")
			case "epd":
				b.ReportMetric(float64(r.Pipeline.Framing+r.Pipeline.CRC), "epd-damaged-pdus")
			}
		}
	}
}

func BenchmarkExtension_AdlerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AdlerComparison(experiments.Config{Scale: 0.25})
		for _, r := range rows {
			switch r.Algorithm {
			case "IP/TCP":
				b.ReportMetric(r.Collision, "tcp16-collision")
			case "Adler-32":
				b.ReportMetric(r.Collision, "adler32-collision")
			case "CRC-32":
				b.ReportMetric(r.Collision, "crc32-collision")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Sanity: the bench corpus profiles build (guards against silent scale
// regressions making every bench measure an empty corpus).

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var total int64
		for _, p := range corpus.AllProfiles() {
			fs := p.Scale(0.05).Build()
			total += fs.TotalBytes()
		}
		if total == 0 {
			b.Fatal("empty corpora")
		}
		b.ReportMetric(float64(total), "corpus-bytes")
	}
}

// TestBenchHarnessSmoke keeps `go test ./...` exercising the root
// harness without -bench: it runs the cheapest experiment end to end.
func TestBenchHarnessSmoke(t *testing.T) {
	plain, comp := experiments.Table7(experiments.Config{Scale: 0.02})
	if plain.Packets == 0 || comp.Packets == 0 {
		t.Fatal("no packets simulated")
	}
	if fmt.Sprintf("%s", plain.System) == "" {
		t.Fatal("unnamed result")
	}
}

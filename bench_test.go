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
	"realsum/internal/errmodel"
	"realsum/internal/experiments"
	"realsum/internal/inet"
	"realsum/internal/splice"
	"realsum/internal/stats"
	"realsum/internal/tcpip"
)

// benchScale keeps each iteration under a couple of seconds.
var benchScale = experiments.Config{Scale: 0.05}

// distScale gives the distribution experiments enough blocks.
var distScale = experiments.Config{Scale: 0.25}

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
		b.ReportMetric(plain.MissRate(plain.MissedByChecksum), "plain-miss-rate")
		b.ReportMetric(comp.MissRate(comp.MissedByChecksum), "compressed-miss-rate")
	}
}

// ---------------------------------------------------------------------
// Table 8: Fletcher vs TCP.

func BenchmarkTable8_Fletcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(benchScale)
		var tcp, f255, f256, rem uint64
		for _, r := range rows {
			tcp += r.Get("tcp").MissedByChecksum
			f255 += r.Get("f255").MissedByChecksum
			f256 += r.Get("f256").MissedByChecksum
			rem += r.Get("tcp").Remaining
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
		b.ReportMetric(d.Baseline.MissRate(d.Baseline.MissedByChecksum), "filled-miss-rate")
		b.ReportMetric(d.ZeroIPHeader.MissRate(d.ZeroIPHeader.MissedByChecksum), "zeroed-miss-rate")
	}
}

func BenchmarkAblation_NoInvert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Ablations(benchScale)
		b.ReportMetric(d.Baseline.MissRate(d.Baseline.MissedByChecksum), "inverted-miss-rate")
		b.ReportMetric(d.NoInvert.MissRate(d.NoInvert.MissedByChecksum), "noninverted-miss-rate")
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
			tcp, f255, f256 := r.Get("tcp"), r.Get("f255"), r.Get("f256")
			b.ReportMetric(tcp.MissRate(tcp.MissedByChecksum), "tcp-miss-rate")
			b.ReportMetric(f255.MissRate(f255.MissedByChecksum), "f255-miss-rate")
			b.ReportMetric(f256.MissRate(f256.MissedByChecksum), "f256-miss-rate")
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
			switch r.Policy {
			case "random":
				b.ReportMetric(float64(r.Stats.DetectedCRC+r.Stats.DetectedChecksum), "random-splice-candidates")
			case "epd":
				b.ReportMetric(float64(r.Stats.DetectedFraming+r.Stats.DetectedCRC), "epd-damaged-pdus")
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
// Error-model benches: the classical guarantees under §7's alternative
// models.

func BenchmarkErrorModelBursts(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		missedTCP := errmodel.Measure(errmodel.TCPCheck(), errmodel.Burst{Bits: 15}, data, 2000, 1)
		missedCRC := errmodel.Measure(errmodel.CRCCheck(crc.CRC32), errmodel.Burst{Bits: 32}, data, 2000, 2)
		b.ReportMetric(float64(missedTCP), "tcp-15bit-burst-misses")
		b.ReportMetric(float64(missedCRC), "crc32-32bit-burst-misses")
	}
}

func BenchmarkErrorModelGarbage(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i * 37)
	}
	for i := 0; i < b.N; i++ {
		missed := errmodel.Measure(errmodel.CRCCheck(crc.CRC10), errmodel.Garbage{Bytes: 64}, data, 50_000, 3)
		b.ReportMetric(float64(missed)/50_000, "crc10-garbage-miss-rate")
		b.ReportMetric(stats.UniformMissRate(10), "crc10-expected")
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

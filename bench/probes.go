package main

import (
	"time"

	"realsum/internal/algo"
	"realsum/internal/census"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/lz"
	"realsum/internal/tcpip"
)

// probeBytes caps the corpus prefix the layer probes run over.
const probeBytes = 2 << 20

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// probes times single layers on the workload's own inputs, outside any
// pass and outside the traced wall time: one-shot checksum scoring of
// 256-byte-segment TCP PDUs with the algorithms the pass scores, 48-byte
// cell scoring with Figure 3's algorithms, both compressors and, for the
// census, the analytic lane over the slate.  Each probe reports the
// median of a few repetitions.
func probes(w workload) map[string]float64 {
	var files [][]byte
	var total int
	for _, s := range w.probeCorpus().Specs {
		if total >= probeBytes {
			break
		}
		d := s.Generate()
		files = append(files, d)
		total += len(d)
	}
	var pdus, cells [][]byte
	for _, d := range files {
		flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
		for off := 0; off < len(d); off += 256 {
			pdus = append(pdus, flow.NextPacket(nil, d[off:min(off+256, len(d))]))
		}
		for off := 0; off+dist.CellSize <= len(d); off += dist.CellSize {
			cells = append(cells, d[off:off+dist.CellSize])
		}
	}
	var cellAlgos []algo.Algorithm
	for _, s := range figure3Series {
		cellAlgos = append(cellAlgos, algo.MustLookup(s.algo))
	}
	score := func(algos []algo.Algorithm, bufs [][]byte) float64 {
		return repeat(5, func() {
			for _, b := range bufs {
				for _, a := range algos {
					sink += algo.Sum(a, b)
				}
			}
		}) * 1e9 / float64(max(1, len(bufs)))
	}
	comp := lz.NewCompressor()
	var out []byte
	mb := megabytes(int64(total))
	m := map[string]float64{
		"algo.score_ns_per_pdu":  score(w.scorers(), pdus),
		"algo.score_ns_per_cell": score(cellAlgos, cells),
		"lz.compress_mb_per_s": mb / repeat(3, func() {
			for _, d := range files {
				comp.Reset()
				out = comp.Compress(out[:0], d)
			}
		}),
		"corpus.compress_mb_per_s": mb / repeat(3, func() {
			for _, d := range files {
				sink += uint64(len(corpus.Compress(d)))
			}
		}),
	}
	if _, ok := w.(*censusRun); ok {
		m["census.analyze_s"] = repeat(1, func() {
			for _, c := range census.Slate() {
				sink += census.Analyze(c.Params).A2
			}
		})
	} else {
		m["census.analyze_s"] = 0
	}
	return m
}

// repeat runs fn n times and returns the median duration in seconds.
func repeat(n int, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds)
}

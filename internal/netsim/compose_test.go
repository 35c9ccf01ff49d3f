package netsim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"realsum/internal/algo"
	"realsum/internal/atm"
	"realsum/internal/corpus"
	"realsum/internal/sim"
	"realsum/internal/tcpip"
)

// oracleMismatch re-scores the candidate judge just scored — cells
// [a, b) of s, ending in a trailer that claims sent PDU p — by full
// recompute: algo.Sum over the payload bytes the cells carry and over
// the sent PDU, byte comparisons for intactness and a table CRC-32 for
// the AAL5 trailer.  It returns "" when every composed sum and verdict
// agrees.
func oracleMismatch(w *worker, p int, s *Stream, a, b int) string {
	var recv []byte
	for i := a; i < b; i++ {
		recv = append(recv, s.body(s.Body[i])[:]...)
	}
	sent := w.pduArena[w.pduOff[p]:w.pduOff[p+1]]
	n := w.pktLen[p]
	segRecv, segSent := recv[:min(n, len(recv))], sent[:n]
	intact, segIntact := bytes.Equal(recv, sent), bytes.Equal(segRecv, segSent)
	switch {
	case w.recvLen != len(recv):
		return fmt.Sprintf("packet %d: recvLen %d, received %d bytes", p, w.recvLen, len(recv))
	case w.intact != intact:
		return fmt.Sprintf("packet %d: intact=%v, bytes say %v", p, w.intact, intact)
	case !intact && w.segIdx >= 0 && w.segIntact != segIntact:
		return fmt.Sprintf("packet %d: segment intact=%v, bytes say %v", p, w.segIntact, segIntact)
	}
	for a, alg := range w.algos {
		if got, want := w.sums[p*len(w.algos)+a], algo.Sum(alg, sent); got != want {
			return fmt.Sprintf("packet %d %s: composed sent sum %#x, direct %#x", p, alg.Name(), got, want)
		}
		if w.segIdx >= 0 {
			if got, want := w.segSums[p*len(w.algos)+a], algo.Sum(alg, segSent); got != want {
				return fmt.Sprintf("packet %d %s: composed sent segment sum %#x, direct %#x", p, alg.Name(), got, want)
			}
		}
	}
	if intact {
		return ""
	}
	if !bytes.Equal(w.pdu, recv) {
		return fmt.Sprintf("packet %d: pdu buffer is not the received bytes", p)
	}
	for a, alg := range w.algos {
		sum := algo.Sum(alg, recv)
		if w.e2eSum[a] != sum || w.e2eOK[a] != (sum == algo.Sum(alg, sent)) {
			return fmt.Sprintf("packet %d %s: e2e composed %#x ok=%v, direct %#x", p, alg.Name(), w.e2eSum[a], w.e2eOK[a], sum)
		}
		if w.segIdx < 0 || segIntact {
			continue
		}
		seg := algo.Sum(alg, segRecv)
		if w.segSum[a] != seg || w.segOK[a] != (seg == algo.Sum(alg, segSent)) {
			return fmt.Sprintf("packet %d %s: segment composed %#x ok=%v, direct %#x", p, alg.Name(), w.segSum[a], w.segOK[a], seg)
		}
	}
	if got, want := w.aal5Reg, aal5.RawUpdate(aal5.RawInit(), recv); got != want {
		return fmt.Sprintf("packet %d: composed AAL5 register %#x, direct %#x", p, got, want)
	}
	tr := atm.DecodeTrailer(recv[len(recv)-atm.TrailerSize:])
	if got, want := w.aal5OK(recv, tr.CRC), uint32(aal5.Checksum(recv[:len(recv)-4])) == tr.CRC; got != want {
		return fmt.Sprintf("packet %d: AAL5 field check %v, direct CRC-32 says %v", p, got, want)
	}
	return ""
}

// auditCounts tallies what the oracle saw, so a test can prove it was
// not vacuous.
type auditCounts struct{ judged, corrupted atomic.Int64 }

// audited installs the full-recompute oracle on w.
func audited(t testing.TB, w *worker, n *auditCounts) *worker {
	w.audit = func(p int, s *Stream, a, b int) {
		n.judged.Add(1)
		if !w.intact {
			n.corrupted.Add(1)
		}
		if msg := oracleMismatch(w, p, s, a, b); msg != "" {
			t.Error(msg)
		}
	}
	return w
}

// runAudited is Run with the oracle installed on every engine worker.
func runAudited(t testing.TB, walker corpus.Walker, cfg Config, n *auditCounts) *Tally {
	ws, err := sim.Collect(context.Background(), walker, sim.CollectOptions{Workers: cfg.Workers},
		func() *worker { return audited(t, newWorker(cfg), n) },
		func(sh *worker, idx int, data []byte) { sh.file(idx, data) },
		func(dst, src *worker) { dst.tally.MustMerge(src.tally) },
	)
	if err != nil {
		t.Fatal(err)
	}
	return ws.tally
}

// TestComposedScoreMatchesDirect is the differential test of
// cell-composed scoring against full recompute: every candidate the
// receiver judges — primary transmissions and retries, over every
// registry algorithm × every default channel × both placements, open
// loop and with retransmission, raw and lz-compressed payloads, TCP and
// UDP fragmentation — must carry exactly the sums and verdicts algo.Sum
// gives over its bytes, and the reports must be identical at workers 1,
// 2 and 8.
func TestComposedScoreMatchesDirect(t *testing.T) {
	walker := sliceWalker{files: [][]byte{zeroHeavy(5000), varied(3000), {}, varied(301)}}
	for _, mode := range []Mode{ModeTCP, ModeUDPFrag} {
		for _, compress := range []bool{false, true} {
			for _, retrans := range []bool{false, true} {
				name := fmt.Sprintf("%s/compress=%v/retrans=%v", mode, compress, retrans)
				cfg := Config{Mode: mode, Compress: compress, Retrans: retrans, Trials: 2, Seed: 33}
				var reports []string
				for _, workers := range []int{1, 2, 8} {
					cfg.Workers = workers
					var n auditCounts
					reports = append(reports, runAudited(t, walker, cfg, &n).Report())
					if n.corrupted.Load() == 0 || n.judged.Load() <= n.corrupted.Load() {
						t.Errorf("%s workers=%d: oracle judged %d candidates, %d corrupted; want both kinds",
							name, workers, n.judged.Load(), n.corrupted.Load())
					}
				}
				for i := 1; i < len(reports); i++ {
					if reports[i] != reports[0] {
						t.Errorf("%s: report at workers=%d differs from workers=1", name, []int{1, 2, 8}[i])
					}
				}
			}
		}
	}
}

// TestSentPDUsPassReceiver pins the construction invariant behind the
// receiver's intact fast path, which reuses each sent PDU's verdict:
// every sent PDU, run through the full structural battery — AAL5
// framing and CRC-32, then the TCP/IP header and checksum checks
// (ModeTCP) — is accepted as the packet the sender built, and the
// precomputed verdict says so.  The one exception is a TCP packet with
// under two payload bytes (a file of 0 or 1 bytes, or such a last
// chunk): VerifyPacket's length floor — headers plus a trailer
// checksum's room, at either placement — rejects it, and the
// precomputed verdict must carry that rejection too.
func TestSentPDUsPassReceiver(t *testing.T) {
	files := [][]byte{zeroHeavy(5000), varied(3000), {}, varied(1), varied(301)}
	for _, mode := range []Mode{ModeTCP, ModeUDPFrag} {
		for _, compress := range []bool{false, true} {
			w := newWorker(Config{Mode: mode, Compress: compress, Trials: 1})
			checked := 0
			for idx, data := range files {
				w.file(idx, data)
				for k := 0; k+1 < len(w.pduOff); k++ {
					where := fmt.Sprintf("%s compress=%v file %d PDU %d", mode, compress, idx, k)
					var sent Stream
					lo, hi := w.cellSpan(k)
					w.send(&sent, lo, hi)
					sdu, err := atm.Reassemble(cellsOf(&sent))
					if err != nil {
						t.Fatalf("%s: AAL5 rejects a sent PDU: %v", where, err)
					}
					if !bytes.Equal(sdu, w.pduArena[w.pduOff[k]:][:w.pktLen[k]]) {
						t.Fatalf("%s: AAL5 SDU is not the sent packet", where)
					}
					want := vFragment
					if mode == ModeTCP {
						if err := tcpip.ValidateHeaders(sdu, w.cfg.buildOptions()); err != nil {
							t.Fatalf("%s: sent packet fails header checks: %v", where, err)
						}
						want = vAccepted
						if !tcpip.VerifyPacket(sdu, w.cfg.buildOptions()) {
							if len(sdu) >= tcpip.HeadersLen+tcpip.TrailerLen {
								t.Fatalf("%s: sent %d-byte packet fails its TCP checksum", where, len(sdu))
							}
							want = vChecksum
						}
					}
					if w.sentVerdict[k] != want {
						t.Errorf("%s: precomputed verdict %d, battery says %d", where, w.sentVerdict[k], want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s compress=%v: no PDU checked", mode, compress)
			}
		}
	}
}

// fuzzChannel damages the cell train by a byte program: each 3-byte op
// names a fault and two cell positions.  Besides what the default
// battery does (drop, duplicate, bit flips, payload swaps and copies)
// it moves whole cells with their tags and writes stale arena source
// tags, so the receiver's scoring meets every shape of train.
type fuzzChannel struct{ ops []byte }

func (fuzzChannel) Name() string { return "fuzz" }

func (c fuzzChannel) Transmit(_ *rand.Rand, s *Stream) {
	for o := 0; o+3 <= len(c.ops) && o < 3*32; o += 3 {
		if s.Len() == 0 {
			return
		}
		i, j := int(c.ops[o+1])%s.Len(), int(c.ops[o+2])%s.Len()
		switch c.ops[o] % 7 {
		case 0: // drop cell i
			s.Hdr = append(s.Hdr[:i], s.Hdr[i+1:]...)
			s.Origin = append(s.Origin[:i], s.Origin[i+1:]...)
			s.Body = append(s.Body[:i], s.Body[i+1:]...)
		case 1: // duplicate cell i after itself
			s.Hdr = append(s.Hdr[:i+1], s.Hdr[i:]...)
			s.Origin = append(s.Origin[:i+1], s.Origin[i:]...)
			s.Body = append(s.Body[:i+1], s.Body[i:]...)
		case 2: // flip one bit of cell i
			s.Mutable(i)[j%atm.PayloadSize] ^= 1 << (c.ops[o+2] % 8)
		case 3: // swap the payloads of cells i and j, headers staying put
			s.Body[i], s.Body[j] = s.Body[j], s.Body[i]
		case 4: // misinsert cell j's payload at cell i
			s.Body[i] = s.Body[j]
		case 5: // stale source tag: cell i's arena copy names cell j's source
			src := s.Body[j]
			if src < 0 {
				src = s.arenaSrc[^src]
			}
			s.Mutable(i)
			s.arenaSrc[^s.Body[i]] = src
		case 6: // move whole cells, tags and end-of-packet marks included
			s.Hdr[i], s.Hdr[j] = s.Hdr[j], s.Hdr[i]
			s.Origin[i], s.Origin[j] = s.Origin[j], s.Origin[i]
			s.Body[i], s.Body[j] = s.Body[j], s.Body[i]
		}
	}
}

// FuzzComposedScoreMatchesDirect drives random files through random
// cell-train damage, with retransmission on, and holds every candidate
// the receiver judges to the full-recompute oracle.
func FuzzComposedScoreMatchesDirect(f *testing.F) {
	f.Add(varied(700), []byte{0, 3, 0, 3, 1, 2, 2, 5, 9}, false)
	f.Add(zeroHeavy(1200), []byte{5, 1, 9, 6, 2, 7, 4, 8, 1, 1, 3, 3}, true)
	f.Add([]byte("x"), []byte{1, 0, 0}, false)
	// Cells 1 and 2 of the first packet are both all zero: swapping their
	// bodies leaves the candidate intact, which only the canon ids show.
	f.Add(make([]byte, 600), []byte{3, 1, 2}, false)
	// The same bit flipped twice: an arena cell equal to its source.
	f.Add(varied(600), []byte{2, 1, 5, 2, 1, 5}, false)
	f.Fuzz(func(t *testing.T, data, ops []byte, compress bool) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		cfg := Config{
			Trials:   1,
			Retrans:  true,
			Compress: compress,
			Channels: []ChannelSpec{{Name: "fuzz", New: func() Channel { return fuzzChannel{ops: ops} }}},
		}
		var n auditCounts
		w := audited(t, newWorker(cfg), &n)
		w.file(0, data)
		if n.judged.Load() == 0 && len(w.pduOff) > 1 && len(ops) == 0 {
			t.Fatal("an undamaged train delivered nothing")
		}
	})
}

// BenchmarkTrial times the per-trial hot path on one worker: TCP with
// the retransmission loop closed, the full default channel battery,
// every registry algorithm under both placements.  One op is one trial
// on every channel; ns/delivery divides by the candidates the primary
// transmissions delivered.
func BenchmarkTrial(b *testing.B) {
	var data []byte
	corpus.StanfordU1().Scale(0.05).Build().Walk(func(_ string, d []byte) error {
		if len(data) < 32<<10 {
			data = append(data, d...)
		}
		return nil
	})
	w := newWorker(Config{Retrans: true, Trials: 1, Seed: 1})
	w.file(0, data)
	w.tally.Reset()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		for c := range w.chans {
			w.trial(0, c, i)
		}
	}
	var delivered uint64
	for _, c := range w.tally.Channels {
		delivered += c.PDUsDelivered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/delivery")
}

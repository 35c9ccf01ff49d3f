// Package netsim is the Monte Carlo end-to-end fault-injection
// pipeline: it encodes real corpus files as TCP/IPv4 (or UDP/IPv4 +
// ipfrag fragmentation) packets carried in AAL5/ATM cells, pushes the
// cell train through a pluggable fault channel — cell drop, bit flips,
// solid bursts, cell misordering and misinsertion — and reassembles at
// a receiver that scores every algorithm in the algo registry, counting
// delivered/corrupted/detected/undetected outcomes per (algorithm ×
// fault model).
//
// This is the trial-based complement of the exhaustive splice
// enumeration (Tables 1–3): where enumeration is infeasible — §7's
// alternative error models — undetected-error probability is measured
// by injection, the standard methodology of the CRC-evaluation
// literature.  The scoring convention: each AAL5 PDU notionally carries
// every algorithm's checksum of its sent bytes; a delivered candidate
// (the cells up to a delivered end-of-packet cell) claims the identity
// of its trailer cell's sending packet, and an algorithm misses when
// its checksum of the received bytes equals its checksum of that sent
// PDU even though the bytes differ.
//
// ModeTCP scores every algorithm under two checksum placements over the
// same delivered cells: end to end over the whole reassembled PDU, and
// per TCP segment (the candidate's bytes at the claimed segment's
// span), plus a header-vs-trailer field-position contrast for the TCP
// sum — the paper's §8–§10 layered-checksum axis, measured by
// injection.  See Placement.
//
// Determinism contract: trials run on the sim.Collect shard engine with
// per-trial seeds derived by TrialSeed from (rootSeed, fileIdx,
// channelIdx, trialIdx) only, and the Tally holds nothing but
// commutatively-merged counters, so reports are byte-identical at any
// worker count.  The per-trial hot path performs no steady-state
// allocations.
package netsim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"realsum/internal/algo"
	"realsum/internal/atm"
	"realsum/internal/corpus"
	"realsum/internal/crc"
	"realsum/internal/ipfrag"
	"realsum/internal/lz"
	"realsum/internal/onescomp"
	"realsum/internal/sim"
	"realsum/internal/tcpip"
)

// Mode selects the transport encoding of corpus bytes.
type Mode int

const (
	// ModeTCP carries each corpus chunk as one TCP/IPv4 packet per AAL5
	// PDU — the paper's §3.2 FTP-transfer framing.
	ModeTCP Mode = iota
	// ModeUDPFrag carries larger chunks as UDP/IPv4 datagrams split by
	// ipfrag.Fragment; each IP fragment rides in its own AAL5 PDU and
	// the receiver reassembles the surviving fragments.
	ModeUDPFrag
)

func (m Mode) String() string {
	if m == ModeUDPFrag {
		return "udpfrag"
	}
	return "tcp"
}

// Config parameterizes a netsim run.  The zero value runs ModeTCP with
// the default channel battery, 256-byte segments and 6 trials per
// (file × channel).
type Config struct {
	// Mode is the transport encoding.
	Mode Mode
	// SegmentSize is the TCP payload per packet in ModeTCP (default 256,
	// the paper's segment size).
	SegmentSize int
	// DatagramSize is the UDP payload per datagram in ModeUDPFrag
	// (default 1024).
	DatagramSize int
	// MTU is the fragmentation MTU in ModeUDPFrag (default 280: 256
	// payload bytes per fragment).
	MTU int
	// Trials is the trial count per (file × channel) (default 6).
	Trials int
	// Compress enables the LZ payload stage: every corpus file is
	// lz-compressed before transport encoding, so the cell train the
	// faults hit carries near-uniform bytes — the paper's Table 7 remedy
	// exercised end to end.  Compression is a pure function of the file
	// (no RNG, no clock), so per-trial seeds and worker-count
	// determinism are untouched; per-file ratio stats land in
	// Tally.Comp.
	Compress bool
	// Retrans closes the retransmission loop: a delivery a checksum lane
	// detects as corrupt (or a packet whose trailer never arrives) is
	// retransmitted through the re-rolled channel, up to MaxRetries
	// attempts per packet; a miss is accepted corrupt.  Per (channel ×
	// placement × algorithm) the tally then carries residual corrupt
	// bytes, transmissions and goodput next to a perfect-detection
	// oracle.  Retries draw from RetrySeed sub-streams, so the
	// worker-count byte-identity contract is unchanged.
	Retrans bool
	// MaxRetries caps the retransmission attempts per packet (default 8)
	// — the terminator for dead channels and never-passing checks.
	MaxRetries int
	// Seed is the root seed every per-trial seed derives from.
	Seed uint64
	// Channels is the fault battery (default DefaultChannels).
	Channels []ChannelSpec
	// Algorithms lists the scored algorithms (default algo.All()).
	Algorithms []algo.Algorithm
	// Placements selects the checksum placements scored (default
	// AllPlacements).  PlaceSegment applies to ModeTCP only and is
	// dropped in ModeUDPFrag, whose fragments are not TCP segments.
	Placements []Placement
	// Workers bounds parallelism across files (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *sim.Progress
}

func (c Config) segmentSize() int {
	if c.SegmentSize <= 0 {
		return sim.DefaultSegmentSize
	}
	return c.SegmentSize
}

func (c Config) datagramSize() int {
	if c.DatagramSize <= 0 {
		return 1024
	}
	return c.DatagramSize
}

func (c Config) mtu() int {
	if c.MTU <= 0 {
		return 280
	}
	return c.MTU
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 6
	}
	return c.Trials
}

func (c Config) retryCap() int {
	if c.MaxRetries <= 0 {
		return 8
	}
	return c.MaxRetries
}

func (c Config) channels() []ChannelSpec {
	if len(c.Channels) == 0 {
		return DefaultChannels()
	}
	return c.Channels
}

func (c Config) algorithms() []algo.Algorithm {
	if len(c.Algorithms) == 0 {
		return algo.All()
	}
	return c.Algorithms
}

// placements normalizes the configured placement set: default full
// battery, duplicates dropped, PlaceSegment filtered out in ModeUDPFrag
// (fragments are not TCP segments), and never empty — a run that scores
// no placement would have nothing to report, so the e2e placement is
// the floor.
func (c Config) placements() []Placement {
	src := c.Placements
	if len(src) == 0 {
		src = AllPlacements()
	}
	var out []Placement
	var seen [2]bool
	for _, p := range src {
		if p != PlaceE2E && p != PlaceSegment {
			continue
		}
		if c.Mode == ModeUDPFrag && p == PlaceSegment {
			continue
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		out = []Placement{PlaceE2E}
	}
	return out
}

func (c Config) buildOptions() tcpip.BuildOptions { return tcpip.BuildOptions{} }

// tallyNames resolves the (channel, algorithm, placement) name lists
// the config's tallies are shaped by — shared by the engine workers and
// NewTally so service aggregates always match their shards.
func (c Config) tallyNames() (channels, algos, placements []string) {
	specs := c.channels()
	channels = make([]string, len(specs))
	for i, s := range specs {
		channels[i] = s.Name
	}
	as := c.algorithms()
	algos = make([]string, len(as))
	for i, a := range as {
		algos[i] = a.Name()
	}
	pls := c.placements()
	placements = make([]string, len(pls))
	for i, p := range pls {
		placements[i] = p.String()
	}
	return channels, algos, placements
}

// fragRef queues one AAL5-accepted IP fragment for datagram reassembly:
// the datagram it belongs to and its bytes' span in the fragment arena.
type fragRef struct{ dg, off, n int }

// worker is one engine shard: the per-file sender state, the per-trial
// scratch buffers, and this shard's tally.  Every slice is reused
// across files and trials, so the steady-state trial loop allocates
// nothing (ModeTCP).
type worker struct {
	cfg   Config
	algos []algo.Algorithm
	chans []Channel
	tally *Tally

	// Placement scoring: indexes into each ChannelTally.Placements for
	// the enabled placements (-1 when disabled).
	e2eIdx, segIdx int

	// Compression stage (cfg.Compress): one Reset-per-file compressor
	// and its reused output buffer — the per-file cost, never per-trial.
	comp    *lz.Compressor
	compBuf []byte

	// Sender state for the current file.
	pduArena    []byte       // concatenated sent PDUs (cell payloads incl. padding + trailer)
	pduOff      []int        // PDU k spans pduArena[pduOff[k]:pduOff[k+1]]
	pktLen      []int        // transported packet length within PDU k
	hdrs        []atm.Header // sent cell c is hdrs[c] with payload pduArena[48c:48c+48]
	origin      []int32
	dgArena     []byte // ModeUDPFrag: original unfragmented IP packets
	dgOff       []int
	fragDG      []int // PDU index -> datagram index
	sums        []uint64
	segSums     []uint64  // per-segment placement: Sum over sent segment bytes
	sentCk      []uint16  // per-segment placement: sent TCP checksum field per packet
	sentVerdict []verdict // the receiver battery's verdict on each sent PDU
	pktBuf      []byte
	segBuf      []atm.Cell // one packet's cells, as AppendSegment builds them
	// canon[c] is the first sent cell whose payload equals sent cell c's,
	// so two sent cells hold the same bytes iff their canon ids match.
	// canonTab is canonize's hash table.
	canon, canonTab []int32

	// Cell-composed scoring.  The partial columns are one algo.Stride
	// over 48-byte cells per scored algorithm, then the AAL5 CRC-32's
	// crc.Table.RawPartial.  cellPart holds, computed once per file, row c
	// of every column's partial of sent cell c, packed into 32-bit words:
	// column j at colOff[j], in two words (low first) when it is wider
	// than 32 bits.  A delivery is scored from its cells' Body tags: a
	// sent cell folds in its precomputed partials, and a damaged arena
	// cell patches its source cell's partials with their difference
	// (Stride.Patch, crc.Delta).  algo.Sum over the delivered bytes is the
	// slow oracle the tests hold this to.
	strides  []algo.Stride
	colOff   []int // len(strides)+2 entries; the last is the row length
	cellPart []uint32

	// Per-candidate verdicts, filled by judge.  intact and segIntact say
	// the candidate (or its segment span) equals the sent bytes; when the
	// candidate is not intact, pdu holds its bytes, changed lists the
	// cell positions k at which it may differ from the claimed PDU's cell
	// k (ascending, within both), e2eOK[a]/segOK[a] say algorithm a's
	// check passes it anyway (its sum collides), and aal5Reg is the raw
	// AAL5 register over all of its bytes.  gather, nibbles, e2eSum and
	// segSum are judge's scratch.
	intact, segIntact bool
	recvLen           int
	pdu               []byte
	changed           []int32
	e2eOK, segOK      []bool
	aal5Reg           uint64
	gather            []uint64
	nibbles           crc.Nibbles
	e2eSum, segSum    []uint64
	// audit, set only by tests, sees every candidate judge scored:
	// cells [a, b) of s, claiming sent PDU p.
	audit func(p int, s *Stream, a, b int)

	// Per-trial scratch.
	work      Stream
	delivered []bool
	fragArena []byte
	fragRefs  []fragRef
	frags     [][]byte
	dgBuf     []byte // the reassembled datagram
	pcg       *rand.PCG
	rng       *rand.Rand

	// Retransmission loop (cfg.Retrans).  A lane is one RetransTally a
	// trial settles per packet: for each enabled placement, one lane per
	// algorithm plus the perfect oracle, laid out per packet as
	// placement-major groups of (nAlgos+1) — laneStride lanes per packet.
	// retPending[p*laneStride+l] says lane l of packet p has not yet
	// accepted a delivery this trial; retries run until every lane
	// settles or the retry cap exhausts them.  trialSeed feeds the
	// RetrySeed sub-stream; retWork is the retry attempt's channel
	// stream.
	laneStride int
	trialSeed  uint64
	retPending []bool
	retWork    Stream
}

func newWorker(cfg Config) *worker {
	specs := cfg.channels()
	chans := make([]Channel, len(specs))
	for i, s := range specs {
		chans[i] = s.New()
	}
	e2eIdx, segIdx := -1, -1
	for i, p := range cfg.placements() {
		switch p {
		case PlaceE2E:
			e2eIdx = i
		case PlaceSegment:
			segIdx = i
		}
	}
	pcg := rand.NewPCG(0, 0)
	var comp *lz.Compressor
	if cfg.Compress {
		comp = lz.NewCompressor()
	}
	algos := cfg.algorithms()
	strides := make([]algo.Stride, len(algos))
	for i, a := range algos {
		strides[i] = a.Stride(atm.PayloadSize)
	}
	colOff := []int{0}
	for _, a := range algos {
		colOff = append(colOff, colOff[len(colOff)-1]+(a.Width()+31)/32)
	}
	colOff = append(colOff, colOff[len(colOff)-1]+1)
	w := &worker{
		cfg:     cfg,
		comp:    comp,
		algos:   algos,
		chans:   chans,
		tally:   NewTally(cfg),
		e2eIdx:  e2eIdx,
		segIdx:  segIdx,
		strides: strides,
		colOff:  colOff,
		e2eOK:   make([]bool, len(algos)),
		segOK:   make([]bool, len(algos)),
		e2eSum:  make([]uint64, len(algos)),
		segSum:  make([]uint64, len(algos)),
		pcg:     pcg,
		rng:     rand.New(pcg),
	}
	if cfg.Retrans {
		w.laneStride = len(cfg.placements()) * (len(w.algos) + 1)
	}
	return w
}

// file runs every (channel × trial) combination over one corpus file.
// With cfg.Compress set the file passes through the LZ stage first, so
// the transported payload — and everything downstream: sent sums, cell
// train, fault targets — is the compressed byte stream.
func (w *worker) file(idx int, data []byte) {
	w.reset()
	if w.cfg.Compress {
		w.comp.Reset()
		w.compBuf = w.comp.Compress(w.compBuf[:0], data)
		w.tally.Comp.add(uint64(len(data)), uint64(len(w.compBuf)))
		data = w.compBuf
	}
	switch w.cfg.Mode {
	case ModeUDPFrag:
		w.buildUDP(data)
	default:
		w.buildTCP(data)
	}
	w.computeSums()
	trials := w.cfg.trials()
	for c := range w.chans {
		for t := 0; t < trials; t++ {
			w.trial(idx, c, t)
		}
	}
}

func (w *worker) reset() {
	w.pduArena = w.pduArena[:0]
	w.pduOff = append(w.pduOff[:0], 0)
	w.pktLen = w.pktLen[:0]
	w.hdrs = w.hdrs[:0]
	w.origin = w.origin[:0]
	w.dgArena = w.dgArena[:0]
	w.dgOff = append(w.dgOff[:0], 0)
	w.fragDG = w.fragDG[:0]
	w.sums = w.sums[:0]
	w.segSums = w.segSums[:0]
	w.sentCk = w.sentCk[:0]
	w.sentVerdict = w.sentVerdict[:0]
}

// addPDU segments one transported packet into AAL5 cells and records
// its sent PDU (the exact cell payload bytes, padding and trailer
// included — the unit every algorithm is scored over).
func (w *worker) addPDU(pkt []byte) {
	cells, err := atm.AppendSegment(w.segBuf[:0], pkt, 0, 32)
	if err != nil {
		panic(fmt.Sprintf("netsim: segmenting %d-byte packet: %v", len(pkt), err))
	}
	w.segBuf = cells
	k := int32(len(w.pduOff) - 1)
	for i := range cells {
		w.origin = append(w.origin, k)
		w.hdrs = append(w.hdrs, cells[i].Header)
		w.pduArena = append(w.pduArena, cells[i].Payload[:]...)
	}
	w.pduOff = append(w.pduOff, len(w.pduArena))
	w.pktLen = append(w.pktLen, len(pkt))
}

// buildTCP packetizes the file as the paper's loopback FTP transfer:
// successive 256-byte TCP/IPv4 segments, one AAL5 PDU each.
func (w *worker) buildTCP(data []byte) {
	flow := tcpip.NewLoopbackFlow(w.cfg.buildOptions())
	seg := w.cfg.segmentSize()
	for off := 0; ; off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		w.pktBuf = flow.NextPacket(w.pktBuf[:0], data[off:end])
		w.addPDU(w.pktBuf)
		if end >= len(data) {
			break
		}
	}
}

// netsim's UDP endpoints; any fixed addresses work, they only feed the
// pseudo-header.
var udpSrc = [4]byte{10, 0, 0, 1}
var udpDst = [4]byte{10, 0, 0, 2}

// buildUDP packetizes the file as UDP/IPv4 datagrams, fragments each at
// the configured MTU, and sends every fragment as its own AAL5 PDU.
func (w *worker) buildUDP(data []byte) {
	seg := w.cfg.datagramSize()
	id := uint16(1)
	for off := 0; ; off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		dgram := tcpip.BuildUDPDatagram(udpSrc, udpDst, 4040, 4041, data[off:end])
		total := tcpip.IPv4HeaderLen + len(dgram)
		w.pktBuf = w.pktBuf[:0]
		for i := 0; i < total; i++ {
			w.pktBuf = append(w.pktBuf, 0)
		}
		h := tcpip.IPv4Header{
			TotalLength: uint16(total),
			ID:          id,
			TTL:         64,
			Protocol:    tcpip.ProtocolUDP,
			Src:         udpSrc,
			Dst:         udpDst,
		}
		h.ComputeChecksum()
		h.SerializeTo(w.pktBuf)
		copy(w.pktBuf[tcpip.IPv4HeaderLen:], dgram)

		dgIdx := len(w.dgOff) - 1
		w.dgArena = append(w.dgArena, w.pktBuf...)
		w.dgOff = append(w.dgOff, len(w.dgArena))

		frags, err := ipfrag.Fragment(w.pktBuf, w.cfg.mtu())
		if err != nil {
			panic(fmt.Sprintf("netsim: fragmenting %d-byte packet at MTU %d: %v", total, w.cfg.mtu(), err))
		}
		for _, f := range frags {
			w.addPDU(f)
			w.fragDG = append(w.fragDG, dgIdx)
		}
		id++
		if end >= len(data) {
			break
		}
	}
}

// aal5 is the AAL5 trailer's CRC-32 and aal5Shift its shift past one
// cell; both are immutable and shared by every worker.
var (
	aal5      = crc.New(crc.CRC32)
	aal5Shift = aal5.NewShift(atm.PayloadSize)
)

// cellSpan returns the sent cells [lo, hi) of PDU k.
func (w *worker) cellSpan(k int) (lo, hi int) {
	return w.pduOff[k] / atm.PayloadSize, w.pduOff[k+1] / atm.PayloadSize
}

// computeSums precomputes, once per file, every stride's partial of
// every sent cell and from them every algorithm's checksum of every sent
// PDU — the notional carried check values — and the receiver battery's
// verdict on every sent PDU, so trials only score the received side.
// It fills the partials one column at a time, so each algorithm's
// tables stay in cache across the file's cells, and gives every sent
// cell its canon id.  When the per-segment placement is enabled it also
// records each algorithm's sum over the sent segment bytes (the PDU
// minus AAL5 padding and trailer) and the TCP checksum field value each
// packet transmitted, the trailer-position check material.
func (w *worker) computeSums() {
	nCells, nA := len(w.hdrs), len(w.algos)
	rowLen := w.colOff[nA+1]
	w.cellPart = slices.Grow(w.cellPart[:0], nCells*rowLen)[:nCells*rowLen]
	for j := 0; j <= nA; j++ {
		o, wide := w.colOff[j], w.colOff[j+1]-w.colOff[j] == 2
		for c := 0; c < nCells; c++ {
			cell := w.sentPayload(c)[:]
			var v uint64
			if j < nA {
				v = w.strides[j].Partial(cell)
			} else {
				v = aal5.RawPartial(cell)
			}
			w.cellPart[c*rowLen+o] = uint32(v)
			if wide {
				w.cellPart[c*rowLen+o+1] = uint32(v >> 32)
			}
		}
	}
	w.canonize()
	for k := 0; k+1 < len(w.pduOff); k++ {
		lo, hi := w.cellSpan(k)
		w.send(&w.work, lo, hi)
		w.compose(&w.work, w.work.Body, w.pktLen[k])
		w.sums = append(w.sums, w.e2eSum...)
		v, _ := w.battery(w.pduArena[w.pduOff[k]:w.pduOff[k+1]], hi-lo, k)
		w.sentVerdict = append(w.sentVerdict, v)
		if w.segIdx >= 0 {
			w.segSums = append(w.segSums, w.segSum...)
			w.sentCk = append(w.sentCk, tcpip.StoredTCPChecksum(w.pduArena[w.pduOff[k]:][:w.pktLen[k]]))
		}
	}
}

// canonize gives every sent cell its canon id.  It keys an
// open-addressed table by each cell's AAL5 partial, a CRC-32 of its
// bytes, so only cells whose partials are equal are compared.
func (w *worker) canonize() {
	nCells, rowLen, col := len(w.hdrs), w.colOff[len(w.algos)+1], w.colOff[len(w.algos)]
	size := 1
	for size < 2*nCells {
		size <<= 1
	}
	w.canonTab = slices.Grow(w.canonTab[:0], size)[:size]
	for i := range w.canonTab {
		w.canonTab[i] = -1
	}
	w.canon = slices.Grow(w.canon[:0], nCells)[:nCells]
	for c := range nCells {
		key := w.cellPart[c*rowLen+col]
		for h := int(key) & (size - 1); ; h = (h + 1) & (size - 1) {
			e := w.canonTab[h]
			if e < 0 {
				w.canonTab[h], w.canon[c] = int32(c), int32(c)
				break
			}
			if w.cellPart[int(e)*rowLen+col] == key && *w.sentPayload(int(e)) == *w.sentPayload(c) {
				w.canon[c] = e
				break
			}
		}
	}
}

// aal5Delta patches a damaged cell's AAL5 partial from its difference.
var aal5Delta = aal5.NewDelta(atm.PayloadSize)

// compose fills e2eSum[a] and segSum[a] with algorithm a's checksum of
// the cells of s whose Body tags are body, and of their first n bytes
// (the segment span), and aal5Reg with their raw AAL5 register.  A sent
// cell folds in its precomputed partials, and an arena cell patches its
// source cell's partials with the difference; the short last cell of
// the segment span is summed directly.
func (w *worker) compose(s *Stream, body []int32, n int) {
	nc, nA := len(body), len(w.algos)
	nCol, rowLen := nA+1, w.colOff[nA+1]
	if cap(w.gather) < nc*nCol {
		w.gather = make([]uint64, nc*nCol)
	}
	g := w.gather[:nc*nCol]
	for k, b := range body {
		src := b
		if b < 0 {
			src = s.arenaSrc[^b]
		}
		row := w.cellPart[int(src)*rowLen:][:rowLen]
		for j := 0; j < nCol; j++ {
			o := w.colOff[j]
			v := uint64(row[o])
			if w.colOff[j+1]-o == 2 {
				v |= uint64(row[o+1]) << 32
			}
			g[j*nc+k] = v
		}
		if b < 0 {
			damaged := s.body(b)[:]
			w.nibbles = crc.AppendNibbles(w.nibbles[:0], w.sentPayload(int(src))[:], damaged)
			for j, st := range w.strides {
				g[j*nc+k] = st.Patch(g[j*nc+k], w.nibbles, damaged)
			}
			g[nA*nc+k] = aal5Delta.Patch(g[nA*nc+k], w.nibbles)
		}
	}
	m, tail := n/atm.PayloadSize, n%atm.PayloadSize
	if m >= nc {
		m, tail = nc, 0
	}
	for a, st := range w.strides[:nA] {
		parts := g[a*nc : (a+1)*nc]
		state := st.Fold(st.Start(), parts[:m])
		if w.segIdx >= 0 {
			seg := state
			if tail > 0 {
				seg = st.Tail(state, s.body(body[m])[:tail])
			}
			w.segSum[a] = st.Sum(seg)
		}
		w.e2eSum[a] = st.Sum(st.Fold(state, parts[m:]))
	}
	reg := aal5.RawInit()
	for _, p := range g[nA*nc:] {
		reg = aal5Shift.Fold(reg, p)
	}
	w.aal5Reg = reg
}

// judge scores one candidate — cells [a, b) of s, ending in a trailer
// that claims sent PDU p — into the worker's verdict fields, for the
// primary transmission and every retry alike.  It reads each cell's
// Body tag: cell k whose body is p's cell k, or a sent cell with the
// same canon id, carries the sent bytes, so only arena cells are
// compared.  A candidate that differs nowhere and has p's length is
// intact without touching its bytes; any other is assembled into pdu
// and scored by compose.
func (w *worker) judge(p int, s *Stream, a, b int) {
	lo, hi := w.cellSpan(p)
	body := s.Body[a:b]
	w.recvLen = len(body) * atm.PayloadSize
	w.changed = w.changed[:0]
	for k, c := range body[:min(len(body), hi-lo)] {
		sc := int32(lo + k)
		if c == sc || c >= 0 && w.canon[c] == w.canon[sc] || c < 0 && *s.body(c) == *w.sentPayload(int(sc)) {
			continue
		}
		w.changed = append(w.changed, int32(k))
	}
	w.intact = len(body) == hi-lo && len(w.changed) == 0
	w.segIntact = w.intact
	if !w.intact {
		w.pdu = w.pdu[:0]
		for _, c := range body {
			w.pdu = append(w.pdu, s.body(c)[:]...)
		}
		n := w.pktLen[p]
		if w.segIdx >= 0 {
			w.segIntact = w.recvLen >= n && w.diffCount(n, lo) == 0
		}
		w.compose(s, body, n)
		base := p * len(w.algos)
		for a := range w.algos {
			w.e2eOK[a] = w.e2eSum[a] == w.sums[base+a]
			w.segOK[a] = w.segIntact || w.segIdx >= 0 && w.segSum[a] == w.segSums[base+a]
		}
	}
	if w.audit != nil {
		w.audit(p, s, a, b)
	}
}

// diffCount counts the bytes among the first m at which the candidate
// judge assembled differs from the claimed PDU, whose cells start at
// sent cell lo; m must not exceed either length.  Only the changed
// cells can differ.
func (w *worker) diffCount(m, lo int) uint64 {
	var d uint64
	for _, k := range w.changed {
		off := int(k) * atm.PayloadSize
		if off >= m {
			break
		}
		sent := w.sentPayload(lo + int(k))
		for i, r := range w.pdu[off:min(off+atm.PayloadSize, m)] {
			if r != sent[i] {
				d++
			}
		}
	}
	return d
}

// noteErrClass classifies the corrupted candidate judge assembled,
// claiming the PDU of sent cells [lo, lo+cells), by its XOR difference
// from that PDU, which only the changed cells carry.
func (w *worker) noteErrClass(e *ErrClassTally, lo, cells int) {
	if w.recvLen != cells*atm.PayloadSize {
		e.LenChange++
		return
	}
	var d bitDiff
	for _, k := range w.changed {
		off := int(k) * atm.PayloadSize
		d.add(off, w.pdu[off:][:atm.PayloadSize], w.sentPayload(lo + int(k))[:])
	}
	e.note(d)
}

// sentPayload returns sent cell c's payload.
func (w *worker) sentPayload(c int) *[atm.PayloadSize]byte {
	return (*[atm.PayloadSize]byte)(w.pduArena[c*atm.PayloadSize:])
}

// send loads sent cells [lo, hi) into s, each tagged with its packet
// and carrying its own header and payload.
func (w *worker) send(s *Stream, lo, hi int) {
	s.load(w.hdrs, w.pduArena, w.origin, lo, hi)
}

// trial pushes the file's cell train through one channel once and
// scores what the receiver got.
func (w *worker) trial(fileIdx, chanIdx, trial int) {
	ct := &w.tally.Channels[chanIdx]
	w.trialSeed = TrialSeed(w.cfg.Seed, fileIdx, chanIdx, trial)
	w.pcg.Seed(w.trialSeed, 0xAA15)

	w.send(&w.work, 0, len(w.hdrs))
	w.chans[chanIdx].Transmit(w.rng, &w.work)

	nPkts := len(w.pduOff) - 1
	ct.Trials++
	ct.PacketsSent += uint64(nPkts)
	ct.CellsSent += uint64(len(w.hdrs))
	ct.CellsDelivered += uint64(w.work.Len())
	ct.Bytes += uint64(len(w.pduArena))

	w.delivered = w.delivered[:0]
	for i := 0; i < nPkts; i++ {
		w.delivered = append(w.delivered, false)
	}
	if w.cfg.Retrans {
		need := nPkts * w.laneStride
		if cap(w.retPending) < need {
			w.retPending = make([]bool, need)
		}
		w.retPending = w.retPending[:need]
		for i := range w.retPending {
			w.retPending[i] = true
		}
	}
	w.fragArena = w.fragArena[:0]
	w.fragRefs = w.fragRefs[:0]

	start := 0
	for i := range w.work.Len() {
		if !w.work.EndOfPacket(i) {
			continue
		}
		w.score(ct, int(w.work.Origin[i]), &w.work, start, i+1)
		start = i + 1
	}
	for _, d := range w.delivered {
		if !d {
			ct.Lost++
		}
	}
	if w.cfg.Retrans {
		for p := 0; p < nPkts; p++ {
			w.retryPacket(ct, chanIdx, p)
		}
	}
	if w.cfg.Mode == ModeUDPFrag {
		w.reassembleDatagrams(ct)
	}
}

// score classifies one delivered candidate (the cells up to a delivered
// trailer) against the sent PDU its trailer claims, and asks every
// algorithm under every enabled placement whether it would have caught
// the difference.  judge's verdicts serve the open-loop counters, the
// first transmission's retransmission lanes and the receiver battery.
func (w *worker) score(ct *ChannelTally, origin int, s *Stream, a, b int) {
	ct.PDUsDelivered++
	w.delivered[origin] = true
	w.judge(origin, s, a, b)
	if w.intact {
		ct.Intact++
	} else {
		ct.Corrupted++
		lo, hi := w.cellSpan(origin)
		w.noteErrClass(&ct.ErrClass, lo, hi-lo)
	}
	if w.e2eIdx >= 0 {
		pt := &ct.Placements[w.e2eIdx]
		pt.Delivered++
		if w.intact {
			pt.Intact++
		} else {
			pt.Corrupted++
			for a := range w.algos {
				if w.e2eOK[a] {
					pt.Algos[a].Undetected++
				} else {
					pt.Algos[a].Detected++
				}
			}
		}
	}
	if w.segIdx >= 0 {
		w.scoreSegment(&ct.Placements[w.segIdx], origin)
	}
	if w.cfg.Retrans {
		w.judgeArrival(ct, origin, 1)
	}
	w.pipeline(ct, origin, b-a)
}

// scoreSegment scores one delivered candidate at TCP-segment
// granularity: the received bytes at the claimed segment's span (its
// first PacketLen bytes — AAL5 padding and trailer excluded) against
// the claimed segment's sent check values.  A miss is counted when the
// received segment bytes collide with the sent checksum even though
// the bytes differ.  A candidate whose damage lies entirely in padding
// or trailer bytes is intact here while corrupted end-to-end — the
// placement-blindness the contrast table quantifies.
//
// On each corrupted segment the TCP one's-complement sum is
// additionally scored at both field positions via SegmentCheckValue:
// HeaderPos compares the stored field inside the received bytes,
// TrailerPos the claimed origin's transmitted field value, both
// against the sum recomputed over the received bytes.
func (w *worker) scoreSegment(pt *PlacementTally, origin int) {
	pt.Delivered++
	if w.segIntact {
		pt.Intact++
		return
	}
	pt.Corrupted++
	for a := range w.algos {
		if w.segOK[a] {
			pt.Algos[a].Undetected++
		} else {
			pt.Algos[a].Detected++
		}
	}
	recv := w.pdu[:min(w.pktLen[origin], len(w.pdu))]
	stored, want, ok := tcpip.SegmentCheckValue(recv)
	if ok && onescomp.Congruent(stored, want) {
		pt.HeaderPos.Undetected++
	} else {
		pt.HeaderPos.Detected++
	}
	if ok && onescomp.Congruent(w.sentCk[origin], want) {
		pt.TrailerPos.Undetected++
	} else {
		pt.TrailerPos.Detected++
	}
}

// judgeArrival lets every still-pending retransmission lane of packet p
// judge the candidate judge just scored, delivered by transmission
// number tx.  A lane whose check passes the arrival accepts it —
// corrupt bytes and all — and settles; a lane whose check fails stays
// pending for the next retransmission.  The primary per-algorithm
// Detected/Undetected counters are not touched: retransmission only
// ever adds to the Retrans/Oracle lanes.
func (w *worker) judgeArrival(ct *ChannelTally, p int, tx uint64) {
	nAlgos := len(w.algos)
	pduLen := uint64(w.pduOff[p+1] - w.pduOff[p])
	laneBase := p * w.laneStride
	if w.e2eIdx >= 0 {
		w.settleLanes(&ct.Placements[w.e2eIdx], laneBase+w.e2eIdx*(nAlgos+1), tx, p,
			w.intact, w.e2eOK, w.recvLen, int(pduLen))
	}
	if w.segIdx >= 0 {
		n := w.pktLen[p]
		w.settleLanes(&ct.Placements[w.segIdx], laneBase+w.segIdx*(nAlgos+1), tx, p,
			w.segIntact, w.segOK, min(n, w.recvLen), n)
	}
}

// settleLanes applies one placement's verdicts to its pending lanes
// starting at lane lb: the recvLen received bytes are intact, or each
// algorithm's check passes them per ok.  When a corrupt arrival is
// accepted, its residual corruption is counted against the first
// sentLen bytes of sent PDU p: the positions that differ over the
// common prefix, plus the length difference.
func (w *worker) settleLanes(pt *PlacementTally, lb int, tx uint64, p int, intact bool, ok []bool, recvLen, sentLen int) {
	nAlgos := len(w.algos)
	pduLen := uint64(w.pduOff[p+1] - w.pduOff[p])
	diff, diffDone := uint64(0), intact
	for a := 0; a < nAlgos; a++ {
		if !w.retPending[lb+a] || !(intact || ok[a]) {
			continue
		}
		if !diffDone {
			m := min(recvLen, sentLen)
			lo, _ := w.cellSpan(p)
			diff = w.diffCount(m, lo) + uint64(recvLen-m) + uint64(sentLen-m)
			diffDone = true
		}
		pt.Retrans[a].accept(tx, pduLen, uint64(recvLen), diff)
		w.retPending[lb+a] = false
	}
	if w.retPending[lb+nAlgos] && intact {
		pt.Oracle.accept(tx, pduLen, uint64(recvLen), 0)
		w.retPending[lb+nAlgos] = false
	}
}

// lanesPending reports whether any retransmission lane of packet p is
// still waiting for an acceptable delivery.
func (w *worker) lanesPending(p int) bool {
	for _, pending := range w.retPending[p*w.laneStride : (p+1)*w.laneStride] {
		if pending {
			return true
		}
	}
	return false
}

// retryPacket closes the retransmission loop for one packet after the
// primary transmission settled what it could: while any lane is still
// pending (its check rejected every delivery so far, or the packet's
// trailer never arrived), the packet's own cells are retransmitted
// through the re-rolled channel — each attempt seeded from the
// RetrySeed(trialSeed, packet, attempt) sub-stream, so the fault
// pattern is a pure function of corpus position and the worker-count
// byte-identity contract holds.  All pending lanes share each attempt's
// damage (common random numbers: the channel does not care which
// checksum the receiver runs), so lane differences are pure detection
// differences.  Lanes still pending after the retry cap are exhausted —
// the dead-channel / never-passing-check terminator.
func (w *worker) retryPacket(ct *ChannelTally, chanIdx, p int) {
	if !w.lanesPending(p) {
		return
	}
	retryCap := w.cfg.retryCap()
	cellLo, cellHi := w.cellSpan(p)
	tx := uint64(1)
	for attempt := 1; attempt <= retryCap && w.lanesPending(p); attempt++ {
		tx = uint64(attempt) + 1
		w.pcg.Seed(RetrySeed(w.trialSeed, p, attempt), 0xAA15)
		w.send(&w.retWork, cellLo, cellHi)
		w.chans[chanIdx].Transmit(w.rng, &w.retWork)

		start := 0
		for i := range w.retWork.Len() {
			if !w.retWork.EndOfPacket(i) {
				continue
			}
			w.judge(p, &w.retWork, start, i+1)
			w.judgeArrival(ct, p, tx)
			start = i + 1
		}
	}
	// Exhaust whatever never accepted: tx transmissions were spent on
	// this packet in total, none delivered for these lanes.
	nAlgos := len(w.algos)
	pduLen := uint64(w.pduOff[p+1] - w.pduOff[p])
	laneBase := p * w.laneStride
	for pi := range ct.Placements {
		if pi != w.e2eIdx && pi != w.segIdx {
			continue
		}
		pt := &ct.Placements[pi]
		lb := laneBase + pi*(nAlgos+1)
		for a := 0; a < nAlgos; a++ {
			if w.retPending[lb+a] {
				pt.Retrans[a].exhaust(tx, pduLen)
				w.retPending[lb+a] = false
			}
		}
		if w.retPending[lb+nAlgos] {
			pt.Oracle.exhaust(tx, pduLen)
			w.retPending[lb+nAlgos] = false
		}
	}
}

// verdict is the structural receiver battery's outcome for one
// candidate: the first check that rejected it, or acceptance.
type verdict uint8

const (
	vAccepted        verdict = iota
	vAcceptedCorrupt         // accepted, but the SDU differs from the sent packet
	vFraming
	vCRC
	vHeader
	vChecksum
	vFragment // ModeUDPFrag: an AAL5-accepted fragment, queued for reassembly
)

// pipeline runs the structural receiver battery a real endpoint
// applies on the candidate judge just scored and counts its verdict.
// An intact candidate is the sent PDU, so it takes the sent PDU's
// verdict, computed once per file: nearly always acceptance, but a TCP
// packet with under two payload bytes is below VerifyPacket's length
// floor and counts as a checksum rejection, exactly as when every
// delivery ran the battery (TestSentPDUsPassReceiver).
func (w *worker) pipeline(ct *ChannelTally, origin, nCells int) {
	v, sdu := w.sentVerdict[origin], w.pduArena[w.pduOff[origin]:][:w.pktLen[origin]]
	if !w.intact {
		v, sdu = w.battery(w.pdu, nCells, origin)
	}
	p := &ct.Pipeline
	switch v {
	case vAccepted:
		p.Accepted++
	case vAcceptedCorrupt:
		p.AcceptedCorrupt++
	case vFraming:
		p.Framing++
	case vCRC:
		p.CRC++
	case vHeader:
		p.Header++
	case vChecksum:
		p.Checksum++
	case vFragment:
		p.FragDelivered++
		off := len(w.fragArena)
		w.fragArena = append(w.fragArena, sdu...)
		w.fragRefs = append(w.fragRefs, fragRef{dg: w.fragDG[origin], off: off, n: len(sdu)})
	}
}

// battery runs the receiver checks on candidate bytes pdu, nCells cells
// claiming sent PDU origin, whose composed AAL5 register is aal5Reg:
// AAL5 framing and CRC-32, then either the TCP/IP header and checksum
// checks (ModeTCP) or fragment queueing for IP reassembly (ModeUDPFrag).
// Candidates contain no interior end-of-packet cell by construction, so
// the framing checks reduce to the trailer's length consistency.  It
// returns the verdict and the AAL5 SDU.
func (w *worker) battery(pdu []byte, nCells, origin int) (verdict, []byte) {
	if len(pdu) < atm.TrailerSize {
		return vFraming, nil
	}
	tr := atm.DecodeTrailer(pdu[len(pdu)-atm.TrailerSize:])
	if atm.CellCount(int(tr.Length)) != nCells {
		return vFraming, nil
	}
	if !w.aal5OK(pdu, tr.CRC) {
		return vCRC, nil
	}
	sdu := pdu[:tr.Length]
	if w.cfg.Mode == ModeUDPFrag {
		return vFragment, sdu
	}
	if tcpip.ValidateHeaders(sdu, w.cfg.buildOptions()) != nil {
		return vHeader, sdu
	}
	if !tcpip.VerifyPacket(sdu, w.cfg.buildOptions()) {
		return vChecksum, sdu
	}
	if bytes.Equal(sdu, w.pduArena[w.pduOff[origin]:][:w.pktLen[origin]]) {
		return vAccepted, sdu
	}
	return vAcceptedCorrupt, sdu
}

// aal5OK reports whether the trailer's CRC field holds the AAL5 CRC-32
// of the candidate pdu's bytes ahead of it, from the composed register
// over all of pdu: the field is right iff the register it claims,
// extended over the field's own 4 bytes, reaches aal5Reg — the
// extension is a bijection on registers, so the two tests agree.
func (w *worker) aal5OK(pdu []byte, field uint32) bool {
	return aal5.RawUpdate(aal5.RawFromCRC(uint64(field)), pdu[len(pdu)-4:]) == w.aal5Reg
}

// reassembleDatagrams feeds the AAL5-accepted fragments of each
// datagram through IP reassembly and the UDP checksum — the end-to-end
// receiver of ModeUDPFrag — reassembling into one reused buffer.
func (w *worker) reassembleDatagrams(ct *ChannelTally) {
	p := &ct.Pipeline
	for d := 0; d+1 < len(w.dgOff); d++ {
		w.frags = w.frags[:0]
		for _, fr := range w.fragRefs {
			if fr.dg == d {
				w.frags = append(w.frags, w.fragArena[fr.off:fr.off+fr.n])
			}
		}
		if len(w.frags) == 0 {
			p.DatagramsLost++
			continue
		}
		out, err := ipfrag.AppendReassembled(w.dgBuf[:0], w.frags)
		w.dgBuf = out
		if err != nil {
			p.FragReject++
			continue
		}
		sent := w.dgArena[w.dgOff[d]:w.dgOff[d+1]]
		if bytes.Equal(out, sent) {
			p.DatagramsIntact++
			continue
		}
		var h tcpip.IPv4Header
		if h.DecodeFromBytes(out) != nil || len(out) < tcpip.IPv4HeaderLen+tcpip.UDPHeaderLen ||
			!tcpip.VerifyUDP(h.Src, h.Dst, out[tcpip.IPv4HeaderLen:]) {
			p.UDPCaught++
		} else {
			p.UDPUndetected++
		}
	}
}

// Run executes the full pipeline over every file w yields, on the
// sim.Collect shard engine: each worker owns a private tally, merged
// commutatively after the drain.  The returned Tally is byte-identical
// (through Report) at any worker count.
func Run(ctx context.Context, w corpus.Walker, cfg Config) (*Tally, error) {
	ws, err := sim.Collect(ctx, w, sim.CollectOptions{Workers: cfg.Workers, Progress: cfg.Progress},
		func() *worker { return newWorker(cfg) },
		func(sh *worker, idx int, data []byte) { sh.file(idx, data) },
		func(dst, src *worker) { dst.tally.MustMerge(src.tally) },
	)
	return ws.tally, err
}

// Shard is one incrementally-driven engine worker — the building block
// of the cksumd service path, where a long-running stream feeds files
// one at a time instead of walking a corpus once.  A Shard is not safe
// for concurrent use; a stream runs one per pool worker.  Feeding files
// in submission order with their submission index reproduces Run's
// per-trial seeds exactly, so a stream's merged tally is byte-identical
// to the batch run over the same files at the same cfg.Seed.
type Shard struct {
	w *worker
}

// NewShard builds one engine shard for cfg.
func NewShard(cfg Config) *Shard { return &Shard{w: newWorker(cfg)} }

// File runs every (channel × trial) combination over one file.  idx
// must be the stream's running submission index — the determinism
// handle TrialSeed mixes.  After the first few files have sized the
// reusable buffers, the per-trial loop allocates nothing (ModeTCP).
func (s *Shard) File(idx int, data []byte) { s.w.file(idx, data) }

// Flush merges the shard's accumulated counts into dst and resets the
// shard — the batched-merge step of the service path.  dst must have
// been built by NewTally (or another Shard) from the same Config; a
// shape mismatch (dst from a different scenario) is returned as an
// error with dst unmodified and the shard's counts intact.  The caller
// owns dst's synchronization.  Flush allocates nothing.
func (s *Shard) Flush(dst *Tally) error {
	if err := dst.Merge(s.w.tally); err != nil {
		return err
	}
	s.w.tally.Reset()
	return nil
}

// StreamSeed derives the root seed for replica r of a scenario run at
// base seed root.  Replica 0 runs root itself, so a single-stream
// service run is byte-identical to the equivalent batch Run; further
// replicas get decorrelated fault patterns while staying pure functions
// of (root, r).
func StreamSeed(root uint64, r int) uint64 {
	if r == 0 {
		return root
	}
	return splitmix64(splitmix64(root^0x5EED570EA3) ^ uint64(r))
}

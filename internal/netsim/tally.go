package netsim

import (
	"fmt"
	"math/bits"
	"strings"

	"realsum/internal/report"
)

// AlgoTally counts one algorithm's verdicts over the corrupted
// deliveries one (channel × placement) scored.  Detected + Undetected
// always equals the placement's Corrupted count.
type AlgoTally struct {
	Name       string
	Detected   uint64
	Undetected uint64
}

// Rate returns the miss rate (Undetected over all corrupted deliveries
// scored) and whether any corrupted delivery was scored at all.
// ok == false means zero candidates: a channel that never corrupted
// anything is not evidence of a zero miss rate, and every renderer
// shows it as "-" instead of a fake 0%.
func (a AlgoTally) Rate() (float64, bool) {
	n := a.Detected + a.Undetected
	if n == 0 {
		return 0, false
	}
	return float64(a.Undetected) / float64(n), true
}

// rateCell renders an AlgoTally's miss rate for a table cell: the
// percentage, or "-" when no corrupted delivery was ever scored.
func rateCell(a AlgoTally) string {
	return report.RatePercent(a.Rate())
}

// RetransTally closes the retransmission loop for one checksum lane —
// one algorithm under one (channel × placement), or the perfect oracle
// — over every sent PDU: a delivery the lane's check passes (intact, or
// corrupt-but-collided) is accepted; a detected corruption or a lost
// trailer triggers a retransmission through a re-rolled channel, up to
// the run's retry cap.  What an operator buys with a stronger check is
// exactly this trade: fewer residual corrupt bytes per delivered byte,
// at the cost of more transmissions per delivered PDU.
type RetransTally struct {
	// Accepted counts PDUs whose delivery the lane's check eventually
	// passed within the retry cap.
	Accepted uint64
	// AcceptedCorrupt counts accepted deliveries whose bytes differed
	// from the sent span — the corruption the check let through.
	AcceptedCorrupt uint64
	// Exhausted counts PDUs abandoned at the retry cap with no accepted
	// delivery — the dead-channel terminator.
	Exhausted uint64
	// Transmissions is every send charged to the lane: the first
	// transmission plus each retry, including the sends of abandoned
	// PDUs.
	Transmissions uint64
	// TxBytes prices Transmissions in sent-PDU bytes — the wire cost.
	TxBytes uint64
	// DeliveredBytes is the bytes of accepted deliveries — the goodput.
	DeliveredBytes uint64
	// ResidualBytes counts the bytes inside accepted deliveries that
	// differ from the sent span (positional diff plus any length
	// difference) — the residual corruption per delivered byte the
	// report normalizes to GB.
	ResidualBytes uint64
}

// accept finalizes one delivered PDU: tx transmissions of pduLen bytes
// bought delivered accepted bytes, diff of them corrupt.
func (r *RetransTally) accept(tx, pduLen, delivered, diff uint64) {
	r.Accepted++
	r.Transmissions += tx
	r.TxBytes += tx * pduLen
	r.DeliveredBytes += delivered
	if diff > 0 {
		r.AcceptedCorrupt++
		r.ResidualBytes += diff
	}
}

// exhaust abandons one PDU at the retry cap: tx transmissions of
// pduLen bytes delivered nothing.
func (r *RetransTally) exhaust(tx, pduLen uint64) {
	r.Exhausted++
	r.Transmissions += tx
	r.TxBytes += tx * pduLen
}

func (r *RetransTally) merge(o *RetransTally) {
	r.Accepted += o.Accepted
	r.AcceptedCorrupt += o.AcceptedCorrupt
	r.Exhausted += o.Exhausted
	r.Transmissions += o.Transmissions
	r.TxBytes += o.TxBytes
	r.DeliveredBytes += o.DeliveredBytes
	r.ResidualBytes += o.ResidualBytes
}

// MeanTx is the operator's cost ratio — total transmissions (including
// the wasted sends of abandoned PDUs) per delivered PDU.  ok == false
// when nothing was delivered.
func (r RetransTally) MeanTx() (float64, bool) {
	if r.Accepted == 0 {
		return 0, false
	}
	return float64(r.Transmissions) / float64(r.Accepted), true
}

// ResidualPerGB is the residual corrupt bytes per delivered gigabyte.
func (r RetransTally) ResidualPerGB() (float64, bool) {
	if r.DeliveredBytes == 0 {
		return 0, false
	}
	return float64(r.ResidualBytes) / float64(r.DeliveredBytes) * 1e9, true
}

// Goodput is delivered bytes over transmitted bytes.
func (r RetransTally) Goodput() (float64, bool) {
	if r.TxBytes == 0 {
		return 0, false
	}
	return float64(r.DeliveredBytes) / float64(r.TxBytes), true
}

// OverheadVs is the lane's extra wire cost per delivered byte relative
// to another lane (the perfect oracle in the report): 0 means the same
// goodput, 0.05 means 5% more transmitted bytes per delivered byte.
func (r RetransTally) OverheadVs(o RetransTally) (float64, bool) {
	rg, rok := r.Goodput()
	og, ook := o.Goodput()
	if !rok || !ook || rg == 0 {
		return 0, false
	}
	return og/rg - 1, true
}

// PlacementTally scores every registry algorithm under one checksum
// placement over one channel's deliveries.  The e2e placement's
// Delivered/Intact/Corrupted mirror the channel-level candidate
// counters; the segment placement counts at TCP-segment granularity,
// where a candidate whose damage is confined to AAL5 padding or trailer
// bytes is *intact* — the placement-blindness the paper's layered
// discussion is about.
type PlacementTally struct {
	Name      string
	Delivered uint64
	Intact    uint64
	Corrupted uint64
	Algos     []AlgoTally

	// Retrans, index-aligned with Algos, closes the retransmission loop
	// per algorithm; Oracle is the perfect-detection baseline (accepts
	// exactly the intact deliveries) the goodput overhead is measured
	// against.  Both are nil/zero unless the run enabled Config.Retrans.
	Retrans []RetransTally
	Oracle  RetransTally

	// HeaderPos and TrailerPos contrast the checksum field's position
	// for the real TCP one's-complement sum (pseudo-header included),
	// scored on the segment placement's corrupted deliveries only:
	//
	//   - HeaderPos reads the check value where TCP really carries it —
	//     the stored field inside the received header bytes, which
	//     shares fate with whatever packet's head arrived (§5.3).
	//   - TrailerPos carries the claimed packet's sent check value with
	//     the trailer cell, the way AAL5 carries its CRC — the Table 9
	//     placement.
	//
	// Both compare against the sum recomputed over the received segment
	// bytes, so a head-substitution splice (an intact wrong segment) is
	// accepted by HeaderPos but rejected by TrailerPos.  Zero-valued for
	// the e2e placement.
	HeaderPos  AlgoTally
	TrailerPos AlgoTally
}

// merge folds another shard's counts in.  Tally.Merge has already
// validated that the two placements agree on name, algorithm list and
// retransmission shape, so index alignment here is sound.
func (p *PlacementTally) merge(o *PlacementTally) {
	p.Delivered += o.Delivered
	p.Intact += o.Intact
	p.Corrupted += o.Corrupted
	for i := range p.Algos {
		p.Algos[i].Detected += o.Algos[i].Detected
		p.Algos[i].Undetected += o.Algos[i].Undetected
	}
	for i := range p.Retrans {
		p.Retrans[i].merge(&o.Retrans[i])
	}
	p.Oracle.merge(&o.Oracle)
	p.HeaderPos.Detected += o.HeaderPos.Detected
	p.HeaderPos.Undetected += o.HeaderPos.Undetected
	p.TrailerPos.Detected += o.TrailerPos.Detected
	p.TrailerPos.Undetected += o.TrailerPos.Undetected
}

// Algo returns the tally for the named algorithm under this placement.
func (p *PlacementTally) Algo(name string) (AlgoTally, bool) {
	for _, a := range p.Algos {
		if a.Name == name {
			return a, true
		}
	}
	return AlgoTally{}, false
}

// PipelineTally counts the structural receiver outcomes — the layered
// checks a real AAL5/IP endpoint applies, run alongside the
// per-algorithm scoring.
type PipelineTally struct {
	// ModeTCP path: candidate PDUs by the first check that rejected
	// them, or accepted (split by whether the accepted SDU was intact).
	Accepted        uint64
	AcceptedCorrupt uint64
	Framing         uint64
	CRC             uint64
	Header          uint64
	Checksum        uint64

	// ModeUDPFrag path: per-datagram reassembly outcomes.
	FragDelivered   uint64
	DatagramsIntact uint64
	DatagramsLost   uint64
	FragReject      uint64
	UDPCaught       uint64
	UDPUndetected   uint64
}

func (p *PipelineTally) merge(o *PipelineTally) {
	p.Accepted += o.Accepted
	p.AcceptedCorrupt += o.AcceptedCorrupt
	p.Framing += o.Framing
	p.CRC += o.CRC
	p.Header += o.Header
	p.Checksum += o.Checksum
	p.FragDelivered += o.FragDelivered
	p.DatagramsIntact += o.DatagramsIntact
	p.DatagramsLost += o.DatagramsLost
	p.FragReject += o.FragReject
	p.UDPCaught += o.UDPCaught
	p.UDPUndetected += o.UDPUndetected
}

// ChannelTally aggregates every trial of one fault channel.
type ChannelTally struct {
	Name string

	Trials         uint64
	PacketsSent    uint64
	CellsSent      uint64
	CellsDelivered uint64
	Bytes          uint64 // sent PDU bytes pushed through the channel

	PDUsDelivered uint64 // candidates ending in a delivered trailer cell
	Intact        uint64 // delivered byte-identical to the claimed PDU
	Corrupted     uint64 // delivered differing from the claimed PDU
	Lost          uint64 // packets whose trailer never arrived

	// ErrClass histograms the XOR structure of the corrupted deliveries
	// (see errclass.go) — the measured error distribution the polynomial
	// census weighs its analytic coverage by.
	ErrClass ErrClassTally

	Placements []PlacementTally
	Pipeline   PipelineTally
}

func (c *ChannelTally) merge(o *ChannelTally) {
	c.Trials += o.Trials
	c.PacketsSent += o.PacketsSent
	c.CellsSent += o.CellsSent
	c.CellsDelivered += o.CellsDelivered
	c.Bytes += o.Bytes
	c.PDUsDelivered += o.PDUsDelivered
	c.Intact += o.Intact
	c.Corrupted += o.Corrupted
	c.Lost += o.Lost
	c.ErrClass.merge(&o.ErrClass)
	for i := range c.Placements {
		c.Placements[i].merge(&o.Placements[i])
	}
	c.Pipeline.merge(&o.Pipeline)
}

// Placement returns the tally for the named placement, or nil.
func (c *ChannelTally) Placement(name string) *PlacementTally {
	for i := range c.Placements {
		if c.Placements[i].Name == name {
			return &c.Placements[i]
		}
	}
	return nil
}

// scoring returns the placement whose per-algorithm counts stand in for
// the channel's headline scoring: e2e when enabled, else the first
// placement configured.
func (c *ChannelTally) scoring() *PlacementTally {
	if p := c.Placement(PlaceE2E.String()); p != nil {
		return p
	}
	if len(c.Placements) > 0 {
		return &c.Placements[0]
	}
	return nil
}

// CompStats aggregates the LZ payload stage's per-file outcomes: how
// many files were compressed, the byte totals on both sides, and the
// extreme per-file ratios.  The extremes are held as exact (comp, raw)
// byte pairs and compared by cross-multiplication, so Merge stays
// commutative bit-for-bit: equal real ratios divide to the same float64
// regardless of which file's pair survived the merge.
type CompStats struct {
	Files     uint64
	RawBytes  uint64
	CompBytes uint64

	// MinComp/MinRaw is the (compressed, raw) byte pair of the file with
	// the smallest ratio; MaxComp/MaxRaw the largest.  MinRaw == 0 means
	// no non-empty file has been recorded.
	MinComp, MinRaw uint64
	MaxComp, MaxRaw uint64
}

// ratioLess reports aNum/aDen < bNum/bDen exactly, comparing the
// cross-products in 128 bits via bits.Mul64.  A raw uint64
// cross-multiplication overflows once a file reaches 4 GiB (comp·raw
// exceeds 2^64) and can silently invert the min/max selection.
func ratioLess(aNum, aDen, bNum, bDen uint64) bool {
	hiA, loA := bits.Mul64(aNum, bDen)
	hiB, loB := bits.Mul64(bNum, aDen)
	return hiA < hiB || (hiA == hiB && loA < loB)
}

// add records one compressed file.  Empty files count toward the
// totals but carry no ratio.
func (s *CompStats) add(raw, comp uint64) {
	s.Files++
	s.RawBytes += raw
	s.CompBytes += comp
	if raw == 0 {
		return
	}
	if s.MinRaw == 0 || ratioLess(comp, raw, s.MinComp, s.MinRaw) {
		s.MinComp, s.MinRaw = comp, raw
	}
	if s.MaxRaw == 0 || ratioLess(s.MaxComp, s.MaxRaw, comp, raw) {
		s.MaxComp, s.MaxRaw = comp, raw
	}
}

func (s *CompStats) merge(o *CompStats) {
	s.Files += o.Files
	s.RawBytes += o.RawBytes
	s.CompBytes += o.CompBytes
	if o.MinRaw != 0 && (s.MinRaw == 0 || ratioLess(o.MinComp, o.MinRaw, s.MinComp, s.MinRaw)) {
		s.MinComp, s.MinRaw = o.MinComp, o.MinRaw
	}
	if o.MaxRaw != 0 && (s.MaxRaw == 0 || ratioLess(s.MaxComp, s.MaxRaw, o.MaxComp, o.MaxRaw)) {
		s.MaxComp, s.MaxRaw = o.MaxComp, o.MaxRaw
	}
}

// MinRatio, MeanRatio and MaxRatio report compressed/raw byte ratios;
// the mean is byte-weighted (total compressed over total raw).  Each
// reports false when no file with bytes has been recorded, so there is
// no ratio to report.
func (s *CompStats) MinRatio() (float64, bool) { return ratio(s.MinComp, s.MinRaw) }

// MeanRatio is CompBytes/RawBytes — the corpus-weighted ratio.
func (s *CompStats) MeanRatio() (float64, bool) { return ratio(s.CompBytes, s.RawBytes) }

// MaxRatio is the largest per-file ratio recorded.
func (s *CompStats) MaxRatio() (float64, bool) { return ratio(s.MaxComp, s.MaxRaw) }

func ratio(num, den uint64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return float64(num) / float64(den), true
}

// Tally is the merged result of a netsim run: per (channel × placement
// × algorithm) outcome counts.  Every field is an order-independent
// counter, so Merge is commutative and the engine's sharded
// accumulation yields the same Tally at any worker count.
type Tally struct {
	Mode string
	// Compressed records whether the run's payloads passed the LZ stage;
	// it relabels the report ("tcp+lz") and enables the Comp header.
	Compressed bool
	// Comp holds the LZ stage's per-file ratio stats (zero when
	// Compressed is false).
	Comp CompStats
	// Retrans records whether the run closed the retransmission loop;
	// it enables the residual-error tables and the retrans pin lines.
	// MaxRetries is the run's retry cap (meaningful only when Retrans).
	Retrans    bool
	MaxRetries int
	Channels   []ChannelTally
}

// label names the run for report titles and pin lines: the transport
// mode, suffixed "+lz" when the payload passed the compression stage —
// so raw and compressed pins never collide in grep.
func (t *Tally) label() string {
	if t.Compressed {
		return t.Mode + "+lz"
	}
	return t.Mode
}

// NewTally builds an empty tally shaped for cfg — the aggregate a
// service stream merges its shard batches into.  Its shape matches any
// Shard built from the same cfg, so Shard.Flush never panics.
func NewTally(cfg Config) *Tally {
	channels, algos, placements := cfg.tallyNames()
	t := newTally(cfg.Mode.String(), channels, algos, placements, cfg.Retrans, cfg.retryCap())
	t.Compressed = cfg.Compress
	return t
}

// newTally builds an empty tally shaped for the channel, algorithm and
// placement name lists; retrans shapes the per-algorithm RetransTally
// slices with cap maxRetries.
func newTally(mode string, channels, algos, placements []string, retrans bool, maxRetries int) *Tally {
	t := &Tally{Mode: mode, Channels: make([]ChannelTally, len(channels))}
	if retrans {
		t.Retrans = true
		t.MaxRetries = maxRetries
	}
	for i, cn := range channels {
		t.Channels[i].Name = cn
		t.Channels[i].Placements = make([]PlacementTally, len(placements))
		for pi, pn := range placements {
			pt := &t.Channels[i].Placements[pi]
			pt.Name = pn
			pt.Algos = make([]AlgoTally, len(algos))
			for a, an := range algos {
				pt.Algos[a].Name = an
			}
			if retrans {
				pt.Retrans = make([]RetransTally, len(algos))
			}
			pt.HeaderPos.Name = "tcp@header"
			pt.TrailerPos.Name = "tcp@trailer"
		}
	}
	return t
}

// Merge folds another shard's counts into t.  The two tallies must have
// been shaped by the same engine configuration; Merge validates the full
// shape — mode, compression, retransmission cap, and the name and order
// of every channel, placement and algorithm — before touching a counter,
// and returns a named-mismatch error otherwise.  The lower-level merges
// index-align their slices, so an unvalidated merge of tallies from
// different scenarios (e.g. a cksumd replica running a different
// profile) would silently misattribute counts or panic out of range.
// On error t is unmodified.
func (t *Tally) Merge(o *Tally) error {
	if err := t.matchShape(o); err != nil {
		return err
	}
	t.Comp.merge(&o.Comp)
	for i := range t.Channels {
		t.Channels[i].merge(&o.Channels[i])
	}
	return nil
}

// matchShape checks that o's shape is element-wise identical to t's.
func (t *Tally) matchShape(o *Tally) error {
	if t.Mode != o.Mode {
		return fmt.Errorf("netsim: merge shape mismatch: mode %q vs %q", t.Mode, o.Mode)
	}
	if t.Compressed != o.Compressed {
		return fmt.Errorf("netsim: merge shape mismatch: compressed %v vs %v", t.Compressed, o.Compressed)
	}
	if t.Retrans != o.Retrans || t.MaxRetries != o.MaxRetries {
		return fmt.Errorf("netsim: merge shape mismatch: retrans %v/cap=%d vs %v/cap=%d",
			t.Retrans, t.MaxRetries, o.Retrans, o.MaxRetries)
	}
	if len(t.Channels) != len(o.Channels) {
		return fmt.Errorf("netsim: merge shape mismatch: %d vs %d channels", len(t.Channels), len(o.Channels))
	}
	for i := range t.Channels {
		tc, oc := &t.Channels[i], &o.Channels[i]
		if tc.Name != oc.Name {
			return fmt.Errorf("netsim: merge shape mismatch: channel[%d] %q vs %q", i, tc.Name, oc.Name)
		}
		if len(tc.Placements) != len(oc.Placements) {
			return fmt.Errorf("netsim: merge shape mismatch: channel %s has %d vs %d placements",
				tc.Name, len(tc.Placements), len(oc.Placements))
		}
		for pi := range tc.Placements {
			tp, op := &tc.Placements[pi], &oc.Placements[pi]
			if tp.Name != op.Name {
				return fmt.Errorf("netsim: merge shape mismatch: channel %s placement[%d] %q vs %q",
					tc.Name, pi, tp.Name, op.Name)
			}
			if len(tp.Algos) != len(op.Algos) {
				return fmt.Errorf("netsim: merge shape mismatch: %s/%s has %d vs %d algorithms",
					tc.Name, tp.Name, len(tp.Algos), len(op.Algos))
			}
			for a := range tp.Algos {
				if tp.Algos[a].Name != op.Algos[a].Name {
					return fmt.Errorf("netsim: merge shape mismatch: %s/%s algo[%d] %q vs %q",
						tc.Name, tp.Name, a, tp.Algos[a].Name, op.Algos[a].Name)
				}
			}
			if len(tp.Retrans) != len(op.Retrans) {
				return fmt.Errorf("netsim: merge shape mismatch: %s/%s has %d vs %d retrans lanes",
					tc.Name, tp.Name, len(tp.Retrans), len(op.Retrans))
			}
		}
	}
	return nil
}

// MustMerge merges o into t and panics on a shape mismatch — for the
// engine-internal paths (worker shards, stream flushes) where both
// tallies are built from one Config and a mismatch is a program bug.
func (t *Tally) MustMerge(o *Tally) {
	if err := t.Merge(o); err != nil {
		panic(err)
	}
}

// Reset zeroes every counter, preserving the tally's shape — the
// second half of the batched-merge cycle: flush merges a shard's counts
// into the aggregate, Reset empties the shard for the next batch.
func (t *Tally) Reset() {
	t.Comp = CompStats{}
	for i := range t.Channels {
		c := &t.Channels[i]
		name, placements := c.Name, c.Placements
		*c = ChannelTally{Name: name, Placements: placements}
		for pi := range placements {
			p := &placements[pi]
			name, algos, retr := p.Name, p.Algos, p.Retrans
			*p = PlacementTally{Name: name, Algos: algos, Retrans: retr}
			for a := range algos {
				algos[a].Detected, algos[a].Undetected = 0, 0
			}
			for a := range retr {
				retr[a] = RetransTally{}
			}
			p.HeaderPos = AlgoTally{Name: "tcp@header"}
			p.TrailerPos = AlgoTally{Name: "tcp@trailer"}
		}
	}
}

// Clone deep-copies the tally — the snapshot a metrics scrape renders
// while the stream keeps merging batches into the original.
func (t *Tally) Clone() *Tally {
	o := &Tally{Mode: t.Mode, Compressed: t.Compressed, Comp: t.Comp,
		Retrans: t.Retrans, MaxRetries: t.MaxRetries,
		Channels: append([]ChannelTally(nil), t.Channels...)}
	for i := range o.Channels {
		pls := append([]PlacementTally(nil), o.Channels[i].Placements...)
		for pi := range pls {
			pls[pi].Algos = append([]AlgoTally(nil), pls[pi].Algos...)
			if pls[pi].Retrans != nil {
				pls[pi].Retrans = append([]RetransTally(nil), pls[pi].Retrans...)
			}
		}
		o.Channels[i].Placements = pls
	}
	return o
}

// Channel returns the tally for the named channel.
func (t *Tally) Channel(name string) (*ChannelTally, bool) {
	for i := range t.Channels {
		if t.Channels[i].Name == name {
			return &t.Channels[i], true
		}
	}
	return nil, false
}

// Shape is one channel's §7 ranking summary: which algorithm missed the
// most corrupted deliveries (under the headline e2e placement).
type Shape struct {
	Channel         string
	Corrupted       uint64
	Weakest         string
	WeakestUndetect uint64
	CRC32Undetected uint64
	TCPUndetected   uint64
}

// Shapes computes the per-channel ranking claims the paper's §7 makes
// and cmd/paper -netsim asserts: under data-shaped faults the TCP
// checksum is the weakest registered algorithm while CRC-32 stays at
// its uniform (≈0) rate.
func (t *Tally) Shapes() []Shape {
	out := make([]Shape, 0, len(t.Channels))
	for i := range t.Channels {
		c := &t.Channels[i]
		s := Shape{Channel: c.Name, Corrupted: c.Corrupted}
		if p := c.scoring(); p != nil {
			for _, a := range p.Algos {
				if s.Weakest == "" || a.Undetected > s.WeakestUndetect {
					s.Weakest, s.WeakestUndetect = a.Name, a.Undetected
				}
				switch a.Name {
				case "crc32":
					s.CRC32Undetected = a.Undetected
				case "tcp":
					s.TCPUndetected = a.Undetected
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// Report renders the tally: a channel summary table, a per-algorithm
// miss table per (channel × placement), the placement contrast section,
// and the shape- and placement-claim lines the tests pin.
func (t *Tally) Report() string {
	var b strings.Builder

	if t.Compressed {
		b.WriteString(fmt.Sprintf(
			"lz payload stage: %d files, %s -> %s bytes, ratio min=%s mean=%s max=%s\n\n",
			t.Comp.Files, report.Count(t.Comp.RawBytes), report.Count(t.Comp.CompBytes),
			report.RatePercent(t.Comp.MinRatio()), report.RatePercent(t.Comp.MeanRatio()),
			report.RatePercent(t.Comp.MaxRatio())))
	}

	sum := report.Table{
		Title: fmt.Sprintf("netsim %s: channel outcomes", t.label()),
		Headers: []string{"channel", "trials", "pkts", "cells", "delivered",
			"PDUs", "intact", "corrupted", "lost"},
	}
	for i := range t.Channels {
		c := &t.Channels[i]
		sum.AddRow(c.Name, report.Count(c.Trials), report.Count(c.PacketsSent),
			report.Count(c.CellsSent), report.Count(c.CellsDelivered),
			report.Count(c.PDUsDelivered), report.Count(c.Intact),
			report.Count(c.Corrupted), report.Count(c.Lost))
	}
	b.WriteString(sum.Render())
	b.WriteByte('\n')

	for i := range t.Channels {
		c := &t.Channels[i]
		for pi := range c.Placements {
			p := &c.Placements[pi]
			at := report.Table{
				Headers: []string{"algorithm", "detected", "undetected", "miss rate"},
			}
			if p.Name == PlaceE2E.String() {
				at.Title = fmt.Sprintf("netsim %s · %s: undetected corruptions per algorithm (%s corrupted PDUs)",
					t.label(), c.Name, report.Count(p.Corrupted))
			} else {
				at.Title = fmt.Sprintf("netsim %s · %s: undetected corruptions per algorithm, per-segment placement (%s corrupted segments)",
					t.label(), c.Name, report.Count(p.Corrupted))
			}
			for _, a := range p.Algos {
				at.AddRow(a.Name, report.Count(a.Detected), report.Count(a.Undetected), rateCell(a))
			}
			if p.Name == PlaceSegment.String() {
				for _, a := range []AlgoTally{p.HeaderPos, p.TrailerPos} {
					at.AddRow(a.Name, report.Count(a.Detected), report.Count(a.Undetected), rateCell(a))
				}
			}
			b.WriteString(at.Render())
			b.WriteByte('\n')
			if t.Retrans && len(p.Retrans) == len(p.Algos) {
				b.WriteString(t.retransTable(c, p))
				b.WriteByte('\n')
			}
		}
	}

	b.WriteString(t.lossContrastReport())
	b.WriteString(t.placementContrastReport())
	b.WriteString(t.residualContrastReport())
	b.WriteString(t.pipelineReport())
	for _, line := range t.ShapeLines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, line := range t.PlacementLines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, line := range t.RetransLines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// floatCell renders a (value, ok) metric: fixed-precision, or "-" when
// the denominator never accumulated (nothing delivered / transmitted).
func floatCell(v float64, ok bool, prec int) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// retransTable renders one (channel × placement)'s closed-loop scoring:
// per algorithm lane, what the retry protocol delivered, what corruption
// it let through per delivered GB, what the wire cost was, and the
// goodput overhead against the perfect-detection oracle.
func (t *Tally) retransTable(c *ChannelTally, p *PlacementTally) string {
	tb := report.Table{
		Title: fmt.Sprintf("netsim %s · %s · %s: retransmission loop (retry cap %d)",
			t.label(), c.Name, p.Name, t.MaxRetries),
		Headers: []string{"algorithm", "delivered", "acc-corrupt", "exhausted",
			"mean tx/PDU", "residual B/GB", "goodput", "overhead vs oracle"},
	}
	row := func(name string, r RetransTally) {
		mtx, mok := r.MeanTx()
		res, rok := r.ResidualPerGB()
		gp, gok := r.Goodput()
		ov, ook := r.OverheadVs(p.Oracle)
		tb.AddRow(name, report.Count(r.Accepted), report.Count(r.AcceptedCorrupt),
			report.Count(r.Exhausted), floatCell(mtx, mok, 4), floatCell(res, rok, 1),
			floatCell(gp, gok, 4), floatCell(ov, ook, 4))
	}
	for i, a := range p.Algos {
		row(a.Name, p.Retrans[i])
	}
	or := p.Oracle
	mtx, mok := or.MeanTx()
	res, rok := or.ResidualPerGB()
	gp, gok := or.Goodput()
	tb.AddRow("oracle", report.Count(or.Accepted), report.Count(or.AcceptedCorrupt),
		report.Count(or.Exhausted), floatCell(mtx, mok, 4), floatCell(res, rok, 1),
		floatCell(gp, gok, 4), "0.0000")
	return tb.Render()
}

// RetransLines renders the per-channel retransmission pin lines ci.sh
// greps — the headline scoring placement's tcp and crc32 lanes plus the
// oracle, in raw counters so any drift in the retry loop, the retry
// seed chain or the residual diff accounting shows as an exact diff.
func (t *Tally) RetransLines() []string {
	if !t.Retrans {
		return nil
	}
	var out []string
	for i := range t.Channels {
		c := &t.Channels[i]
		p := c.scoring()
		if p == nil || len(p.Retrans) != len(p.Algos) {
			continue
		}
		var tcp, crc RetransTally
		for a := range p.Algos {
			switch p.Algos[a].Name {
			case "tcp":
				tcp = p.Retrans[a]
			case "crc32":
				crc = p.Retrans[a]
			}
		}
		out = append(out, fmt.Sprintf(
			"retrans[%s/%s]: cap=%d pdus=%d tcp_tx=%d tcp_resid=%d crc32_tx=%d crc32_resid=%d oracle_tx=%d exhausted=%d",
			t.label(), c.Name, t.MaxRetries, c.PacketsSent,
			tcp.Transmissions, tcp.ResidualBytes, crc.Transmissions, crc.ResidualBytes,
			p.Oracle.Transmissions, p.Oracle.Exhausted))
	}
	return out
}

// residualContrastReport is the closed-loop counterpart of the
// miss-rate loss contrast: over the cell-loss channels at matched
// average rate, the open-loop miss rate next to what the operator
// actually experiences — residual corrupt bytes per delivered GB, mean
// transmissions per delivered PDU, and goodput overhead vs the perfect
// oracle — for the bellwether algorithms.  Correlated loss concentrates
// damage into the retransmissions themselves, so a matched average rate
// that leaves miss rates close can still widen the residual gap.
func (t *Tally) residualContrastReport() string {
	if !t.Retrans {
		return ""
	}
	var rows []*ChannelTally
	for i := range t.Channels {
		if strings.HasPrefix(t.Channels[i].Name, "drop") {
			rows = append(rows, &t.Channels[i])
		}
	}
	if len(rows) < 2 {
		return ""
	}
	tb := report.Table{
		Title: fmt.Sprintf("netsim %s: residual error vs miss rate, i.i.d. vs correlated loss at matched rate", t.label()),
		Headers: []string{"channel", "algorithm", "miss rate", "residual B/GB",
			"mean tx/PDU", "overhead vs oracle"},
	}
	for _, c := range rows {
		p := c.scoring()
		if p == nil || len(p.Retrans) != len(p.Algos) {
			continue
		}
		for _, name := range []string{"tcp", "f255", "crc32"} {
			for a := range p.Algos {
				if p.Algos[a].Name != name {
					continue
				}
				r := p.Retrans[a]
				res, rok := r.ResidualPerGB()
				mtx, mok := r.MeanTx()
				ov, ook := r.OverheadVs(p.Oracle)
				tb.AddRow(c.Name, name, rateCell(p.Algos[a]),
					floatCell(res, rok, 1), floatCell(mtx, mok, 4), floatCell(ov, ook, 4))
			}
		}
	}
	return tb.Render() + "\n"
}

// ShapeLines renders the per-channel shape pin lines — the compact
// ranking summary ci.sh and the cksumd metrics endpoint grep.
func (t *Tally) ShapeLines() []string {
	out := make([]string, 0, len(t.Channels))
	for _, s := range t.Shapes() {
		out = append(out, fmt.Sprintf("shape[%s/%s]: corrupted=%d weakest=%s(%d) tcp=%d crc32=%d",
			t.label(), s.Channel, s.Corrupted, s.Weakest, s.WeakestUndetect, s.TCPUndetected, s.CRC32Undetected))
	}
	return out
}

// PlacementLines renders the per-channel per-segment placement pin
// lines, one per channel that scored the segment placement.
func (t *Tally) PlacementLines() []string {
	var out []string
	for i := range t.Channels {
		c := &t.Channels[i]
		seg := c.Placement(PlaceSegment.String())
		if seg == nil {
			continue
		}
		tcp, _ := seg.Algo("tcp")
		f255, _ := seg.Algo("f255")
		crc, _ := seg.Algo("crc32")
		out = append(out, fmt.Sprintf("placement[%s/%s]: seg_corrupted=%d tcp=%d f255=%d crc32=%d header=%d trailer=%d",
			t.label(), c.Name, seg.Corrupted, tcp.Undetected, f255.Undetected, crc.Undetected,
			seg.HeaderPos.Undetected, seg.TrailerPos.Undetected))
	}
	return out
}

// lossContrastReport contrasts the cell-loss channels — i.i.d. drop vs
// the correlated processes — which the battery runs at matched average
// loss rate: measured loss, splice-candidate formation (corrupted
// deliveries), where the layered receiver rejected them, and the
// undetected counts of the bellwether algorithms.  Rendered only when
// the tally holds at least two drop channels to contrast.
func (t *Tally) lossContrastReport() string {
	var rows []*ChannelTally
	for i := range t.Channels {
		if strings.HasPrefix(t.Channels[i].Name, "drop") {
			rows = append(rows, &t.Channels[i])
		}
	}
	if len(rows) < 2 {
		return ""
	}
	tb := report.Table{
		Title: fmt.Sprintf("netsim %s: i.i.d. vs correlated cell loss at matched average rate", t.label()),
		Headers: []string{"channel", "cell loss", "lost pkts", "splices",
			"framing", "AAL5 CRC", "header", "checksum", "acc-corrupt", "tcp miss", "crc32 miss"},
	}
	for _, c := range rows {
		loss := 0.0
		if c.CellsSent > 0 {
			loss = 1 - float64(c.CellsDelivered)/float64(c.CellsSent)
		}
		var tcpMiss, crcMiss uint64
		if p := c.scoring(); p != nil {
			for _, a := range p.Algos {
				switch a.Name {
				case "tcp":
					tcpMiss = a.Undetected
				case "crc32":
					crcMiss = a.Undetected
				}
			}
		}
		p := &c.Pipeline
		tb.AddRow(c.Name, report.Percent(loss), report.Count(c.Lost), report.Count(c.Corrupted),
			report.Count(p.Framing), report.Count(p.CRC), report.Count(p.Header),
			report.Count(p.Checksum), report.Count(p.AcceptedCorrupt),
			report.Count(tcpMiss), report.Count(crcMiss))
	}
	return tb.Render() + "\n"
}

// placementContrastReport renders the end-to-end vs per-segment
// placement contrast — the Table 9 axis measured by injection.  One row
// per channel: how many deliveries each placement saw as corrupted, the
// bellwether algorithms' misses under each, and the TCP sum's
// header-vs-trailer position misses on the per-segment corruptions.
// Rendered only when both placements were scored.
func (t *Tally) placementContrastReport() string {
	type pair struct{ c *ChannelTally }
	var rows []pair
	for i := range t.Channels {
		c := &t.Channels[i]
		if c.Placement(PlaceE2E.String()) != nil && c.Placement(PlaceSegment.String()) != nil {
			rows = append(rows, pair{c})
		}
	}
	if len(rows) == 0 {
		return ""
	}
	tb := report.Table{
		Title: fmt.Sprintf("netsim %s: end-to-end vs per-segment checksum placement", t.label()),
		Headers: []string{"channel", "e2e corrupt", "e2e tcp", "e2e crc32",
			"seg corrupt", "seg tcp", "seg f255", "seg crc32", "tcp@header", "tcp@trailer"},
	}
	for _, r := range rows {
		e2e := r.c.Placement(PlaceE2E.String())
		seg := r.c.Placement(PlaceSegment.String())
		e2eTCP, _ := e2e.Algo("tcp")
		e2eCRC, _ := e2e.Algo("crc32")
		segTCP, _ := seg.Algo("tcp")
		segF255, _ := seg.Algo("f255")
		segCRC, _ := seg.Algo("crc32")
		tb.AddRow(r.c.Name,
			report.Count(e2e.Corrupted), report.Count(e2eTCP.Undetected), report.Count(e2eCRC.Undetected),
			report.Count(seg.Corrupted), report.Count(segTCP.Undetected), report.Count(segF255.Undetected),
			report.Count(segCRC.Undetected),
			report.Count(seg.HeaderPos.Undetected), report.Count(seg.TrailerPos.Undetected))
	}
	return tb.Render() + "\n"
}

// pipelineReport renders the structural receiver outcomes for the
// tally's mode.
func (t *Tally) pipelineReport() string {
	p := report.Table{}
	if t.Mode == ModeUDPFrag.String() {
		p.Title = "netsim udpfrag: ipfrag reassembly outcomes per channel"
		p.Headers = []string{"channel", "frags", "dg intact", "dg lost", "frag reject", "UDP caught", "UDP undetected"}
		for i := range t.Channels {
			c := &t.Channels[i].Pipeline
			p.AddRow(t.Channels[i].Name, report.Count(c.FragDelivered),
				report.Count(c.DatagramsIntact), report.Count(c.DatagramsLost),
				report.Count(c.FragReject), report.Count(c.UDPCaught), report.Count(c.UDPUndetected))
		}
	} else {
		p.Title = "netsim tcp: layered receiver outcomes per channel (first check that fired)"
		p.Headers = []string{"channel", "accepted", "accepted-corrupt", "framing", "AAL5 CRC", "header", "checksum"}
		for i := range t.Channels {
			c := &t.Channels[i].Pipeline
			p.AddRow(t.Channels[i].Name, report.Count(c.Accepted), report.Count(c.AcceptedCorrupt),
				report.Count(c.Framing), report.Count(c.CRC), report.Count(c.Header), report.Count(c.Checksum))
		}
	}
	return p.Render() + "\n"
}

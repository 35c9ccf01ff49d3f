package netsim

import (
	"math/rand/v2"
	"slices"
	"sort"

	"realsum/internal/atm"
	"realsum/internal/errmodel"
	"realsum/internal/lossim"
)

// Stream is the cell train a channel transmits, held as references to
// the sender's cells rather than as cell bytes.  Delivered cell i is
// three parallel tags:
//
//   - Hdr[i], the sent cell whose header it carries — and with it the
//     end-of-packet mark that frames candidates at the receiver;
//   - Origin[i], the sending packet.  The origin of a delivered trailer
//     names the sent PDU the candidate claims to be, and that PDU's
//     per-algorithm checksum is the notional check value it carried;
//   - Body[i], where its 48 payload bytes live: sent cell Body[i] when
//     it is ≥ 0, else arena slot ^Body[i], a private copy a channel
//     damaged.
//
// Channels that drop or duplicate cells keep the three slices parallel,
// channels that move payloads move Body tags, and a channel that damages
// a payload writes through Mutable, which copies the cell into the arena
// only when it is hit.  Each arena slot remembers the sent cell it was
// copied from, so the receiver scores a damaged cell from its difference
// to that cell and an undamaged one from the sent cell's precomputed
// partial sums, without comparing bytes.
type Stream struct {
	Hdr    []int32
	Origin []int32
	Body   []int32

	hdrs     []atm.Header // the sent cells' headers
	sent     []byte       // the sent cells' payloads, cell c at [48c, 48c+48)
	arena    []byte       // damaged payloads, slot k at [48k, 48k+48)
	arenaSrc []int32      // the sent cell each arena slot was copied from
}

// load fills s with sent cells [lo, hi) of the train whose headers,
// payloads and packet tags are hdrs, sent and origin, each cell
// carrying its own header and payload, and empties the arena.
func (s *Stream) load(hdrs []atm.Header, sent []byte, origin []int32, lo, hi int) {
	s.hdrs, s.sent = hdrs, sent
	s.arena, s.arenaSrc = s.arena[:0], s.arenaSrc[:0]
	n := hi - lo
	s.Hdr = slices.Grow(s.Hdr[:0], n)[:n]
	s.Body = slices.Grow(s.Body[:0], n)[:n]
	for i := range s.Hdr {
		s.Hdr[i] = int32(lo + i)
		s.Body[i] = int32(lo + i)
	}
	s.Origin = append(s.Origin[:0], origin[lo:hi]...)
}

// Len is the number of cells in the train.
func (s *Stream) Len() int { return len(s.Body) }

// EndOfPacket reports whether cell i carries an end-of-packet header.
func (s *Stream) EndOfPacket(i int) bool { return s.hdrs[s.Hdr[i]].EndOfPacket() }

// body returns the payload a Body tag names.
func (s *Stream) body(b int32) *[atm.PayloadSize]byte {
	if b >= 0 {
		return (*[atm.PayloadSize]byte)(s.sent[int(b)*atm.PayloadSize:])
	}
	return (*[atm.PayloadSize]byte)(s.arena[int(^b)*atm.PayloadSize:])
}

// Mutable gives cell i a payload of its own in the arena, a copy of its
// current bytes, and returns it for the caller to damage.  Every call
// copies, so cells that share a body never see each other's damage.
// The array stays valid until the next call to Mutable.
func (s *Stream) Mutable(i int) *[atm.PayloadSize]byte {
	b := s.Body[i]
	src := b
	if b < 0 {
		src = s.arenaSrc[^b]
	}
	slot := len(s.arenaSrc)
	s.arena = append(s.arena, s.body(b)[:]...)
	s.arenaSrc = append(s.arenaSrc, src)
	s.Body[i] = ^int32(slot)
	return s.body(s.Body[i])
}

// Channel is one fault process.  Transmit rewrites the stream's tags
// and damages payloads through Stream.Mutable, deterministically for a
// given rng state.  A Channel may carry mutable per-trial state
// (loss-policy latches, scratch lists), so each engine shard
// instantiates its own channels via ChannelSpec.New.
type Channel interface {
	Name() string
	Transmit(rng *rand.Rand, s *Stream)
}

// ChannelSpec names a channel and constructs per-shard instances of it.
type ChannelSpec struct {
	Name string
	New  func() Channel
}

// DefaultChannels is the fault-model battery cmd/paper -netsim runs:
// three cell-loss processes at a matched 1% average rate — i.i.d. drop
// (the splice-forming baseline), a Gilbert–Elliott two-state chain, and
// geometric burst-of-cells drops — plus two-bit flips, 32-bit solid
// bursts, cell payload reordering, cell misinsertion, and mid-PDU cell
// duplication.
func DefaultChannels() []ChannelSpec {
	return []ChannelSpec{
		{Name: "drop", New: func() Channel {
			return &DropChannel{Policy: lossim.RandomLoss{P: 0.01}}
		}},
		// Matched to drop's 1% average: πB = 0.02 of cells see the Bad
		// state (mean sojourn 5 cells, ≈ most of a 256-byte packet) at a
		// 40.2% drop rate, the rest lose 0.2% — 0.98·0.002 + 0.02·0.402
		// = 0.01 exactly.
		{Name: "drop-ge", New: func() Channel {
			return &DropChannel{Policy: lossim.GilbertElliottAt(0.01, 5, 0.002, 0.402)}
		}},
		// Matched to drop's 1% average: whole-cell runs of mean length 4.
		{Name: "drop-burst", New: func() Channel {
			return &DropChannel{Policy: lossim.BurstDropAt(0.01, 4)}
		}},
		{Name: "bitflip", New: func() Channel {
			return &CellCorrupt{Model: errmodel.BitFlips{K: 2}, PerCell: 0.05}
		}},
		{Name: "burst", New: func() Channel {
			return &CellCorrupt{Model: errmodel.SolidBurst{Bits: 32}, PerCell: 0.05}
		}},
		{Name: "reorder", New: func() Channel {
			return &CellShuffle{Model: errmodel.Reorder{Unit: atm.PayloadSize}, PerPacket: 0.5}
		}},
		{Name: "misinsert", New: func() Channel {
			return &CellShuffle{Model: errmodel.Misinsert{Unit: atm.PayloadSize}, PerPacket: 0.5}
		}},
		{Name: "dup", New: func() Channel {
			return &CellDup{PerPacket: 0.5}
		}},
	}
}

// ChannelNames lists the battery's channel names in order — the valid
// arguments to ChannelsByName and cmd/netsim -channels.
func ChannelNames() []string {
	specs := DefaultChannels()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ChannelsByName filters DefaultChannels down to a comma-separated
// subset, preserving battery order.  Unknown names are reported, sorted,
// so callers' error messages are stable run-to-run.
func ChannelsByName(names []string) ([]ChannelSpec, []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []ChannelSpec
	for _, spec := range DefaultChannels() {
		if want[spec.Name] {
			out = append(out, spec)
			delete(want, spec.Name)
		}
	}
	unknown := make([]string, 0, len(want))
	for n := range want {
		unknown = append(unknown, n)
	}
	sort.Strings(unknown)
	if len(unknown) == 0 {
		unknown = nil
	}
	return out, unknown
}

// DropChannel runs a lossim cell-loss policy over the stream: the
// splice-forming fault, where surviving cells of adjacent packets
// concatenate at the receiver.  The policy is driven exactly per the
// lossim.Policy contract: StartStream once per trial (so every trial is
// a pure function of its TrialSeed), StartPacket at each packet
// boundary (origin change), Drop per cell.  Correlated policies keep
// their stream state across packet boundaries within the trial.
type DropChannel struct {
	Policy lossim.Policy
}

// Name implements Channel.
func (d *DropChannel) Name() string { return "drop:" + d.Policy.Name() }

// Transmit implements Channel.  It filters the tags in place.
func (d *DropChannel) Transmit(rng *rand.Rand, s *Stream) {
	d.Policy.StartStream(rng)
	n := 0
	cur := int32(-1)
	for i, o := range s.Origin {
		if o != cur {
			cur = o
			d.Policy.StartPacket(rng)
		}
		if d.Policy.Drop(rng, s.EndOfPacket(i)) {
			continue
		}
		s.Hdr[n], s.Origin[n], s.Body[n] = s.Hdr[i], o, s.Body[i]
		n++
	}
	s.Hdr, s.Origin, s.Body = s.Hdr[:n], s.Origin[:n], s.Body[:n]
}

// CellCorrupt damages individual cell payloads: each cell is hit with
// probability PerCell, and a hit applies Model to the payload bytes in
// place (headers, and therefore framing, survive — the §7 model where
// the medium corrupts data but delivery structure holds).  On an
// end-of-packet cell the AAL5 CPCS trailer occupies the final
// atm.TrailerSize bytes of the payload and is part of the framing this
// model promises to preserve, so corruption there is restricted to the
// SDU/padding bytes ahead of the trailer; a burst rewriting the
// length/CRC fields would silently turn a payload fault into a framing
// fault.
type CellCorrupt struct {
	Model   errmodel.Model
	PerCell float64
}

// Name implements Channel.
func (c *CellCorrupt) Name() string { return "corrupt:" + c.Model.Name() }

// Transmit implements Channel.  Only a hit cell is copied into the
// arena.
func (c *CellCorrupt) Transmit(rng *rand.Rand, s *Stream) {
	for i := range s.Body {
		if rng.Float64() >= c.PerCell {
			continue
		}
		p := s.Mutable(i)[:]
		if s.EndOfPacket(i) {
			p = p[:atm.PayloadSize-atm.TrailerSize]
		}
		c.Model.CorruptInPlace(rng, p)
	}
}

// CellShuffle applies a record-level errmodel (Reorder or Misinsert) to
// the data cells of individual packets, as records of one cell payload
// each (the model's Unit must be atm.PayloadSize): each packet is hit with
// probability PerPacket, and a hit runs the model over the packet's
// cells but the trailer cell as records, moving their Body tags — the
// model compares records by the payload bytes the tags name, so its rng
// draws and its damage are those of the model run over the gathered
// payloads.  The trailer cell is exempt so the AAL5 framing fields stay
// put and the fault isolates what the *checksum* can see: misordered or
// misinserted data at exact cell positions — the fault class where
// positional checksums (Fletcher, CRC) and the position-blind TCP sum
// separate most sharply.
type CellShuffle struct {
	Model     errmodel.RecordModel
	PerPacket float64

	recs cellRecords
}

// Name implements Channel.
func (c *CellShuffle) Name() string { return "shuffle:" + c.Model.Name() }

// Transmit implements Channel.
func (c *CellShuffle) Transmit(rng *rand.Rand, s *Stream) {
	i := 0
	for i < s.Len() {
		j := i
		for j < s.Len() && !s.EndOfPacket(j) {
			j++
		}
		if j >= s.Len() {
			return // stranded tail with no trailer; nothing to frame
		}
		// Packet cells are [i, j] with the trailer at j; data cells [i, j).
		if rng.Float64() < c.PerPacket && j-i >= 2 {
			c.recs = cellRecords{s: s, lo: i, hi: j}
			c.Model.CorruptRecords(rng, &c.recs)
		}
		i = j + 1
	}
}

// cellRecords is cells [lo, hi) of a stream as errmodel records: moving
// a record moves its Body tag.
type cellRecords struct {
	s      *Stream
	lo, hi int
}

func (r *cellRecords) Len() int  { return r.hi - r.lo }
func (r *cellRecords) Size() int { return atm.PayloadSize }
func (r *cellRecords) Equal(i, j int) bool {
	b := r.s.Body
	return b[r.lo+i] == b[r.lo+j] || *r.s.body(b[r.lo+i]) == *r.s.body(b[r.lo+j])
}
func (r *cellRecords) Swap(i, j int) {
	b := r.s.Body
	b[r.lo+i], b[r.lo+j] = b[r.lo+j], b[r.lo+i]
}
func (r *cellRecords) Copy(dst, src int) { r.s.Body[r.lo+dst] = r.s.Body[r.lo+src] }

// CellDup duplicates one mid-PDU data cell per hit packet: each packet
// is hit with probability PerPacket, and a hit replays a uniformly
// chosen non-trailer cell immediately after itself — the switch fault
// AAL5 receivers must reject via the trailer's length check, since the
// candidate then spans one cell more than CellCount(Length) allows.
// The duplicate carries its original's tags, so accounting still
// charges the candidate to the packet whose trailer it ends in.
type CellDup struct {
	PerPacket float64

	dups []int
}

// Name implements Channel.
func (c *CellDup) Name() string { return "dup" }

// Transmit implements Channel.  It draws every packet's duplicate first,
// in stream order, then opens the slots in place, so the steady state
// allocates nothing once the stream's buffers have grown.
func (c *CellDup) Transmit(rng *rand.Rand, s *Stream) {
	c.dups = c.dups[:0]
	for i := 0; i < s.Len(); {
		j := i
		for j < s.Len() && !s.EndOfPacket(j) {
			j++
		}
		if j >= s.Len() {
			break // stranded tail with no trailer; it passes through
		}
		// Packet cells are [i, j] with the trailer at j; duplicable data
		// cells are [i, j).
		if j > i && rng.Float64() < c.PerPacket {
			c.dups = append(c.dups, i+rng.IntN(j-i))
		}
		i = j + 1
	}
	s.Hdr = insertDups(s.Hdr, c.dups)
	s.Origin = insertDups(s.Origin, c.dups)
	s.Body = insertDups(s.Body, c.dups)
}

// insertDups repeats x[p] right after itself for every p in the
// ascending dups, moving elements back from the end so each moves once.
func insertDups(x []int32, dups []int) []int32 {
	hi := len(x)
	x = slices.Grow(x, len(dups))[:hi+len(dups)]
	for d := len(dups) - 1; d >= 0; d-- {
		p := dups[d]
		copy(x[p+d+2:hi+d+1], x[p+1:hi])
		x[p+d+1] = x[p]
		hi = p + 1
	}
	return x
}

// splitmix64 is the SplitMix64 finalizer, the mixing step of the
// per-trial seed chain.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// TrialSeed derives the RNG seed for one trial as a SplitMix64 chain
// over (rootSeed, fileIdx, channelIdx, trialIdx).  Every trial's fault
// pattern is therefore a pure function of corpus position — never of
// worker scheduling — which is what makes reports byte-identical at
// any -workers count.
func TrialSeed(root uint64, file, channel, trial int) uint64 {
	x := splitmix64(root ^ 0x6E7E7517)
	x = splitmix64(x ^ uint64(file+1))
	x = splitmix64(x ^ uint64(channel+1))
	x = splitmix64(x ^ uint64(trial+1))
	return x
}

// RetrySeed derives the channel seed for one retransmission attempt of
// one packet within a trial — a sub-stream of the trial's seed keyed by
// (packet, attempt), so every retry's fault pattern is a pure function
// of corpus position exactly like the primary transmission: the
// workers-1/2/8 byte-identity contract extends over the retransmission
// loop for free.  The salt separates the retry sub-stream from the
// TrialSeed chain itself (attempt 0 must not collide with trial+1).
func RetrySeed(trialSeed uint64, packet, attempt int) uint64 {
	x := splitmix64(trialSeed ^ 0x8E78A9)
	x = splitmix64(x ^ uint64(packet+1))
	x = splitmix64(x ^ uint64(attempt+1))
	return x
}

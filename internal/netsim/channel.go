package netsim

import (
	"math/rand/v2"
	"slices"
	"sort"

	"realsum/internal/atm"
	"realsum/internal/errmodel"
	"realsum/internal/lossim"
)

// Stream is the cell train a channel transmits: the cells plus, for the
// simulator's bookkeeping only, the index of the sending packet each
// cell came from and the index of the sent cell it started as.
// Channels that drop or duplicate cells must keep the three slices
// parallel; channels that damage payloads leave the tags alone.  The
// origin tags are how the receiver knows which sent PDU a delivered
// trailer claims to terminate — the per-algorithm checksum of that PDU
// is the notional check value the trailer carried.  The source tags are
// a scoring hint: the receiver compares each delivered cell with its
// tagged sent cell and reuses that cell's precomputed partial sums only
// when the 48 payload bytes match, so a damaged cell (or a stale tag)
// costs a direct sum, never a wrong verdict.
type Stream struct {
	Cells  []atm.Cell
	Origin []int32
	Src    []int32
}

// Channel is one fault process.  Transmit damages the stream in place,
// deterministically for a given rng state.  A Channel may carry mutable
// per-trial state (loss-policy latches, gather buffers), so each engine
// shard instantiates its own channels via ChannelSpec.New.
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

// Transmit implements Channel.  It filters cells in place.
func (d *DropChannel) Transmit(rng *rand.Rand, s *Stream) {
	d.Policy.StartStream(rng)
	out := s.Cells[:0]
	oout := s.Origin[:0]
	sout := s.Src[:0]
	cur := int32(-1)
	for i := range s.Cells {
		if s.Origin[i] != cur {
			cur = s.Origin[i]
			d.Policy.StartPacket(rng)
		}
		if d.Policy.Drop(rng, s.Cells[i].Header.EndOfPacket()) {
			continue
		}
		out = append(out, s.Cells[i])
		oout = append(oout, s.Origin[i])
		sout = append(sout, s.Src[i])
	}
	s.Cells = out
	s.Origin = oout
	s.Src = sout
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

// Transmit implements Channel.
func (c *CellCorrupt) Transmit(rng *rand.Rand, s *Stream) {
	for i := range s.Cells {
		if rng.Float64() >= c.PerCell {
			continue
		}
		p := s.Cells[i].Payload[:]
		if s.Cells[i].Header.EndOfPacket() {
			p = p[:atm.PayloadSize-atm.TrailerSize]
		}
		if len(p) == 0 {
			continue
		}
		c.Model.CorruptInPlace(rng, p)
	}
}

// CellShuffle applies a record-level errmodel (Reorder or Misinsert at
// Unit = atm.PayloadSize) to the data cells of individual packets: each
// packet is hit with probability PerPacket, and a hit gathers the
// payloads of every cell but the trailer cell, corrupts the record
// stream, and scatters it back.  The trailer cell is exempt so the
// AAL5 framing fields stay put and the fault isolates what the
// *checksum* can see: misordered or misinserted data at exact cell
// positions — the fault class where positional checksums (Fletcher,
// CRC) and the position-blind TCP sum separate most sharply.
type CellShuffle struct {
	Model     errmodel.Model
	PerPacket float64

	scratch []byte
}

// Name implements Channel.
func (c *CellShuffle) Name() string { return "shuffle:" + c.Model.Name() }

// Transmit implements Channel.
func (c *CellShuffle) Transmit(rng *rand.Rand, s *Stream) {
	i := 0
	for i < len(s.Cells) {
		j := i
		for j < len(s.Cells) && !s.Cells[j].Header.EndOfPacket() {
			j++
		}
		if j >= len(s.Cells) {
			return // stranded tail with no trailer; nothing to frame
		}
		// Packet cells are [i, j] with the trailer at j; data cells [i, j).
		if rng.Float64() < c.PerPacket && j-i >= 2 {
			c.scratch = c.scratch[:0]
			for k := i; k < j; k++ {
				c.scratch = append(c.scratch, s.Cells[k].Payload[:]...)
			}
			c.Model.CorruptInPlace(rng, c.scratch)
			for k := i; k < j; k++ {
				copy(s.Cells[k].Payload[:], c.scratch[(k-i)*atm.PayloadSize:])
			}
		}
		i = j + 1
	}
}

// CellDup duplicates one mid-PDU data cell per hit packet: each packet
// is hit with probability PerPacket, and a hit replays a uniformly
// chosen non-trailer cell immediately after itself — the switch fault
// AAL5 receivers must reject via the trailer's length check, since the
// candidate then spans one cell more than CellCount(Length) allows.
// The duplicate carries its original's Origin and Src tags, so accounting
// still charges the candidate to the packet whose trailer it ends in.
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
	for i := 0; i < len(s.Cells); {
		j := i
		for j < len(s.Cells) && !s.Cells[j].Header.EndOfPacket() {
			j++
		}
		if j >= len(s.Cells) {
			break // stranded tail with no trailer; it passes through
		}
		// Packet cells are [i, j] with the trailer at j; duplicable data
		// cells are [i, j).
		if j > i && rng.Float64() < c.PerPacket {
			c.dups = append(c.dups, i+rng.IntN(j-i))
		}
		i = j + 1
	}
	s.Cells = insertDups(s.Cells, c.dups)
	s.Origin = insertDups(s.Origin, c.dups)
	s.Src = insertDups(s.Src, c.dups)
}

// insertDups repeats x[p] right after itself for every p in the
// ascending dups, moving elements back from the end so each moves once.
func insertDups[T any](x []T, dups []int) []T {
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

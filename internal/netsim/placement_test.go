package netsim

import (
	"context"
	"math/rand/v2"
	"testing"
)

func TestPlacementsByName(t *testing.T) {
	pls, unknown := PlacementsByName([]string{"segment", "nosuch", "e2e"})
	if len(pls) != 2 || pls[0] != PlaceE2E || pls[1] != PlaceSegment {
		t.Errorf("got %v, want [e2e segment] in battery order", pls)
	}
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Errorf("unknown = %v, want [nosuch]", unknown)
	}
	if pls, unknown := PlacementsByName(nil); len(pls) != 0 || unknown != nil {
		t.Errorf("empty input: got %v / %v", pls, unknown)
	}
}

func TestConfigPlacementsNormalization(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want []Placement
	}{
		{"default tcp", Config{}, []Placement{PlaceE2E, PlaceSegment}},
		{"default udpfrag", Config{Mode: ModeUDPFrag}, []Placement{PlaceE2E}},
		{"segment only", Config{Placements: []Placement{PlaceSegment}}, []Placement{PlaceSegment}},
		{"segment only udpfrag falls back", Config{Mode: ModeUDPFrag, Placements: []Placement{PlaceSegment}}, []Placement{PlaceE2E}},
		{"dedup", Config{Placements: []Placement{PlaceE2E, PlaceE2E, PlaceSegment}}, []Placement{PlaceE2E, PlaceSegment}},
	}
	for _, tc := range cases {
		got := tc.cfg.placements()
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// nopChannel delivers every cell untouched — the lossless channel the
// cross-placement differential oracle runs on.
type nopChannel struct{}

func (nopChannel) Name() string                     { return "nop" }
func (nopChannel) Transmit(_ *rand.Rand, _ *Stream) {}

// TestNetsimLosslessDifferential is the cross-placement consistency
// oracle: on a lossless channel every delivered candidate is the sent
// PDU, so the per-segment tally merged over all segments must equal the
// end-to-end tally for every registry algorithm — zero corrupted, zero
// undetected, equal delivered counts.
func TestNetsimLosslessDifferential(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(4096), zeroHeavy(3000), {}, varied(257)}}
	cfg := Config{
		Trials:   3,
		Seed:     11,
		Channels: []ChannelSpec{{Name: "nop", New: func() Channel { return nopChannel{} }}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.PacketsSent == 0 {
		t.Fatal("no packets sent; test is vacuous")
	}
	if c.Lost != 0 || c.PDUsDelivered != c.PacketsSent || c.Corrupted != 0 {
		t.Fatalf("lossless channel: lost=%d delivered=%d/%d corrupted=%d",
			c.Lost, c.PDUsDelivered, c.PacketsSent, c.Corrupted)
	}
	e2e := c.Placement(PlaceE2E.String())
	seg := c.Placement(PlaceSegment.String())
	if e2e == nil || seg == nil {
		t.Fatal("default run must score both placements")
	}
	if e2e.Delivered != seg.Delivered || e2e.Delivered != c.PacketsSent {
		t.Errorf("delivered counts differ: e2e=%d segment=%d sent=%d",
			e2e.Delivered, seg.Delivered, c.PacketsSent)
	}
	for _, pl := range []*PlacementTally{e2e, seg} {
		if pl.Corrupted != 0 || pl.Intact != pl.Delivered {
			t.Errorf("%s: corrupted=%d intact=%d/%d on a lossless channel",
				pl.Name, pl.Corrupted, pl.Intact, pl.Delivered)
		}
		if len(pl.Algos) == 0 {
			t.Fatalf("%s: no algorithms scored", pl.Name)
		}
		for _, a := range pl.Algos {
			if a.Detected != 0 || a.Undetected != 0 {
				t.Errorf("%s/%s: detected=%d undetected=%d, want 0/0",
					pl.Name, a.Name, a.Detected, a.Undetected)
			}
		}
	}
	for _, pos := range []AlgoTally{seg.HeaderPos, seg.TrailerPos} {
		if pos.Detected != 0 || pos.Undetected != 0 {
			t.Errorf("%s: detected=%d undetected=%d on a lossless channel",
				pos.Name, pos.Detected, pos.Undetected)
		}
	}
	// The two placements' algorithm tallies must be element-wise equal.
	for i := range e2e.Algos {
		if e2e.Algos[i] != seg.Algos[i] {
			t.Errorf("algo %s: e2e %+v != segment %+v", e2e.Algos[i].Name, e2e.Algos[i], seg.Algos[i])
		}
	}
}

// headSplice deterministically builds the §5.3 head-substitution
// splice: packet 0 keeps its data cells but loses its trailer, packet 1
// loses its data cells but keeps its trailer.  The receiver sees one
// candidate — packet 0's head under packet 1's identity.
type headSplice struct{}

func (headSplice) Name() string { return "headsplice" }

func (headSplice) Transmit(_ *rand.Rand, s *Stream) {
	n := 0
	for i := range s.Len() {
		eop := s.EndOfPacket(i)
		if (s.Origin[i] == 0 && !eop) || (s.Origin[i] == 1 && eop) {
			s.Hdr[n], s.Origin[n], s.Body[n] = s.Hdr[i], s.Origin[i], s.Body[i]
			n++
		}
	}
	s.Hdr, s.Origin, s.Body = s.Hdr[:n], s.Origin[:n], s.Body[:n]
}

// TestNetsimHeadSplicePlacement reproduces the paper's Table 9 claim by
// injection on a single deterministic fault.  Two all-zero 256-byte
// segments differ only in their sequence numbers and checksum fields
// (the IP ID change is exactly compensated by the IP header checksum in
// the one's-complement sum), so the spliced candidate's segment bytes
// are byte-for-byte packet 0's sent segment:
//
//   - the header-placed TCP check rides inside those bytes and is
//     self-consistent — it misses, as would ANY header-placed check,
//     Fletcher and CRC included, since check and coverage share fate;
//   - the trailer-placed TCP check carries packet 1's transmitted field
//     value, which disagrees with the recomputed sum — it detects;
//   - the per-segment one's-complement "tcp" registry sum also misses,
//     because every valid equal-length segment of the flow sums to the
//     same self-compensating constant;
//   - CRC-32 over the received segment detects the sequence-number
//     difference from packet 1's segment.
func TestNetsimHeadSplicePlacement(t *testing.T) {
	w := sliceWalker{files: [][]byte{make([]byte, 512)}} // two all-zero 256-byte segments
	cfg := Config{
		Trials:   1,
		Seed:     21,
		Channels: []ChannelSpec{{Name: "headsplice", New: func() Channel { return headSplice{} }}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.PacketsSent != 2 || c.PDUsDelivered != 1 || c.Lost != 1 {
		t.Fatalf("splice bookkeeping: sent=%d delivered=%d lost=%d, want 2/1/1",
			c.PacketsSent, c.PDUsDelivered, c.Lost)
	}
	seg := c.Placement(PlaceSegment.String())
	if seg.Corrupted != 1 {
		t.Fatalf("segment placement corrupted=%d, want 1 (the splice)", seg.Corrupted)
	}
	if seg.HeaderPos.Undetected != 1 {
		t.Errorf("header-placed TCP check detected the head splice; it must fate-share and miss (%+v)", seg.HeaderPos)
	}
	if seg.TrailerPos.Detected != 1 || seg.TrailerPos.Undetected != 0 {
		t.Errorf("trailer-placed TCP check missed the head splice (%+v)", seg.TrailerPos)
	}
	tcp, _ := seg.Algo("tcp")
	if tcp.Undetected != 1 {
		t.Errorf("per-segment one's-complement sum should self-compensate and miss: %+v", tcp)
	}
	crc, _ := seg.Algo("crc32")
	if crc.Detected != 1 {
		t.Errorf("per-segment CRC-32 should detect the sequence-number difference: %+v", crc)
	}
	e2e := c.Placement(PlaceE2E.String())
	if e2e.Corrupted != 1 {
		t.Errorf("e2e placement corrupted=%d, want 1", e2e.Corrupted)
	}
}

// padFlip damages one AAL5 padding byte in every trailer cell — bytes
// the end-to-end PDU check covers but no TCP segment contains.
type padFlip struct{}

func (padFlip) Name() string { return "padflip" }

func (padFlip) Transmit(_ *rand.Rand, s *Stream) {
	for i := range s.Len() {
		if s.EndOfPacket(i) {
			// For a 296-byte packet in 7 cells the trailer cell holds
			// segment bytes 0–7, padding 8–39, AAL5 trailer 40–47.
			s.Mutable(i)[16] ^= 0xFF
		}
	}
}

// TestNetsimPaddingBlindSegment pins the placements' coverage split: a
// fault confined to AAL5 padding corrupts the candidate end to end but
// leaves every TCP segment intact, so only the e2e placement sees it.
func TestNetsimPaddingBlindSegment(t *testing.T) {
	w := sliceWalker{files: [][]byte{make([]byte, 512)}}
	cfg := Config{
		Trials:   1,
		Seed:     22,
		Channels: []ChannelSpec{{Name: "padflip", New: func() Channel { return padFlip{} }}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.PDUsDelivered != 2 {
		t.Fatalf("delivered=%d, want 2", c.PDUsDelivered)
	}
	e2e := c.Placement(PlaceE2E.String())
	seg := c.Placement(PlaceSegment.String())
	if e2e.Corrupted != 2 {
		t.Errorf("e2e placement corrupted=%d, want 2 (padding is covered end to end)", e2e.Corrupted)
	}
	if seg.Corrupted != 0 || seg.Intact != 2 {
		t.Errorf("segment placement corrupted=%d intact=%d, want 0/2 (padding is outside every segment)",
			seg.Corrupted, seg.Intact)
	}
}

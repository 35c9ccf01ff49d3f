package netsim

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"realsum/internal/algo"
	"realsum/internal/atm"
	"realsum/internal/errmodel"
	"realsum/internal/lossim"
)

// makeStream segments packets of the given payload sizes into one cell
// train and loads it as a stream, as the netsim sender does.
func makeStream(t *testing.T, sizes ...int) Stream {
	t.Helper()
	var cells []atm.Cell
	var origin []int32
	for k, n := range sizes {
		sdu := make([]byte, n)
		for i := range sdu {
			sdu[i] = byte(i*13 + k)
		}
		var err error
		if cells, err = atm.AppendSegment(cells, sdu, 0, 32); err != nil {
			t.Fatal(err)
		}
		for len(origin) < len(cells) {
			origin = append(origin, int32(k))
		}
	}
	hdrs := make([]atm.Header, len(cells))
	var sent []byte
	for i := range cells {
		hdrs[i] = cells[i].Header
		sent = append(sent, cells[i].Payload[:]...)
	}
	var s Stream
	s.load(hdrs, sent, origin, 0, len(cells))
	return s
}

// cellsOf materializes a stream's cells: each one's header and payload.
func cellsOf(s *Stream) []atm.Cell {
	cells := make([]atm.Cell, s.Len())
	for i := range cells {
		cells[i] = atm.Cell{Header: s.hdrs[s.Hdr[i]], Payload: *s.body(s.Body[i])}
	}
	return cells
}

// TestCellCorruptPreservesTrailer is the regression test for the
// end-of-packet trailer bug: CellCorrupt used to corrupt Payload[:] of
// EOP cells, letting bursts silently rewrite the CPCS length/CRC fields
// — framing damage from a channel documented to preserve framing.  It
// hammers a stream whose cells are almost all EOP cells (1-byte SDUs
// segment to a single marked cell) at PerCell=1 and asserts every
// delivered trailer is bit-identical, while the data bytes ahead of the
// trailer do get damaged.
func TestCellCorruptPreservesTrailer(t *testing.T) {
	for _, model := range []errmodel.Model{
		errmodel.BitFlips{K: 2},
		errmodel.SolidBurst{Bits: 32},
	} {
		sizes := make([]int, 64)
		for i := range sizes {
			sizes[i] = 1 + i%40 // single-cell packets: every cell is EOP
		}
		s := makeStream(t, sizes...)
		var want []atm.Trailer
		for i := range s.Len() {
			if !s.EndOfPacket(i) {
				t.Fatal("expected every cell to be end-of-packet")
			}
			want = append(want, atm.DecodeTrailer(s.body(s.Body[i])[:]))
		}

		ch := &CellCorrupt{Model: model, PerCell: 1}
		rng := rand.New(rand.NewPCG(5, 5))
		touched := false
		for round := 0; round < 50; round++ {
			ch.Transmit(rng, &s)
			for i := range s.Len() {
				if got := atm.DecodeTrailer(s.body(s.Body[i])[:]); got != want[i] {
					t.Fatalf("%s round %d cell %d: trailer rewritten: got %v want %v",
						model.Name(), round, i, got, want[i])
				}
				for _, b := range s.body(s.Body[i])[:atm.PayloadSize-atm.TrailerSize] {
					if b != 0 && s.body(s.Body[i])[0] != byte(i*13) {
						touched = true
					}
				}
				if round == 49 {
					// Sanity: the SDU byte must have been hit at least once
					// across 50 full-rate rounds.
					_ = touched
				}
			}
		}
		if !touched {
			t.Errorf("%s: no SDU/padding byte ever changed; corruption is vacuous", model.Name())
		}
	}
}

// TestCellCorruptDataCellsFullPayload: non-EOP cells carry no framing,
// so the whole 48-byte payload stays in play for the corruption model.
func TestCellCorruptDataCellsFullPayload(t *testing.T) {
	s := makeStream(t, 4096) // one big packet: many data cells
	ch := &CellCorrupt{Model: errmodel.SolidBurst{Bits: 32}, PerCell: 1}
	rng := rand.New(rand.NewPCG(6, 6))
	lastFive := false
	for round := 0; round < 200 && !lastFive; round++ {
		orig := cellsOf(&s)
		ch.Transmit(rng, &s)
		for i := range s.Len() {
			if s.EndOfPacket(i) {
				continue
			}
			for b := atm.PayloadSize - atm.TrailerSize; b < atm.PayloadSize; b++ {
				if s.body(s.Body[i])[b] != orig[i].Payload[b] {
					lastFive = true
				}
			}
		}
	}
	if !lastFive {
		t.Error("trailer-position bytes of data cells never corrupted; the exemption over-reaches")
	}
}

// TestChannelsByNameSortedUnknowns pins the fixed error-reporting order:
// unknown names come back sorted, not in map-range order.
func TestChannelsByNameSortedUnknowns(t *testing.T) {
	for i := 0; i < 20; i++ {
		specs, unknown := ChannelsByName([]string{"zeta", "drop", "alpha"})
		if len(specs) != 1 || specs[0].Name != "drop" {
			t.Fatalf("specs = %v, want [drop]", specs)
		}
		if len(unknown) != 2 || unknown[0] != "alpha" || unknown[1] != "zeta" {
			t.Fatalf("unknown = %v, want [alpha zeta] (sorted, stable)", unknown)
		}
	}
}

func TestChannelNames(t *testing.T) {
	names := ChannelNames()
	want := []string{"drop", "drop-ge", "drop-burst", "bitflip", "burst", "reorder", "misinsert", "dup"}
	if len(names) != len(want) {
		t.Fatalf("ChannelNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ChannelNames() = %v, want %v", names, want)
		}
	}
}

// TestCellDupRejectedByLengthCheck pins the duplication shape claim: a
// duplicated mid-PDU cell makes the candidate one cell longer than
// CellCount(trailer length) allows, so the AAL5 length check rejects
// every corrupted delivery before the CRC is ever consulted.
func TestCellDupRejectedByLengthCheck(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(8192), zeroHeavy(4096)}}
	cfg := Config{
		Trials: 20,
		Seed:   11,
		Channels: []ChannelSpec{{Name: "dup", New: func() Channel {
			return &CellDup{PerPacket: 0.9}
		}}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.Corrupted == 0 {
		t.Fatal("dup channel corrupted nothing; test is vacuous")
	}
	if c.Lost != 0 {
		t.Errorf("dup channel lost %d packets; duplication must not lose trailers", c.Lost)
	}
	p := c.Pipeline
	if p.Framing != c.Corrupted {
		t.Errorf("length check rejected %d of %d duplicated candidates; all must die at framing",
			p.Framing, c.Corrupted)
	}
	if p.CRC != 0 {
		t.Errorf("%d duplicated candidates reached the AAL5 CRC; the length check fires first", p.CRC)
	}
	if p.Header != 0 || p.Checksum != 0 || p.AcceptedCorrupt != 0 {
		t.Errorf("duplicated candidates leaked past framing: header=%d checksum=%d accepted-corrupt=%d",
			p.Header, p.Checksum, p.AcceptedCorrupt)
	}
}

// TestCellDupTransmitShape checks the stream-level mechanics directly:
// hit packets gain exactly one cell, the duplicate is adjacent to its
// original, and the header and origin tags stay parallel.
func TestCellDupTransmitShape(t *testing.T) {
	s := makeStream(t, 300, 300, 300)
	nCells, nOrigin := s.Len(), len(s.Origin)
	ch := &CellDup{PerPacket: 1}
	ch.Transmit(rand.New(rand.NewPCG(7, 7)), &s)
	if s.Len() != nCells+3 {
		t.Fatalf("3 packets at PerPacket=1: got %d cells, want %d", s.Len(), nCells+3)
	}
	if len(s.Origin) != nOrigin+3 || len(s.Hdr) != s.Len() {
		t.Fatalf("tags not parallel: %d origin and %d header tags for %d cells", len(s.Origin), len(s.Hdr), s.Len())
	}
	cells := cellsOf(&s)
	dups := 0
	for i := 1; i < len(cells); i++ {
		if cells[i] == cells[i-1] && s.Origin[i] == s.Origin[i-1] {
			dups++
			if s.EndOfPacket(i) {
				t.Error("trailer cell duplicated; only data cells are eligible")
			}
		}
	}
	if dups != 3 {
		t.Errorf("found %d adjacent duplicates, want 3", dups)
	}
}

// TestNetsimCorrelatedLossContrast is the tentpole acceptance claim: at
// matched 1% average cell-loss rate, the Gilbert–Elliott and burst-drop
// channels produce measurably different splice formation and
// undetected-error behaviour than i.i.d. drop, and the rendered report
// carries the contrast section.
func TestNetsimCorrelatedLossContrast(t *testing.T) {
	specs, unknown := ChannelsByName([]string{"drop", "drop-ge", "drop-burst"})
	if len(unknown) != 0 || len(specs) != 3 {
		t.Fatalf("loss battery: specs=%d unknown=%v", len(specs), unknown)
	}
	w := sliceWalker{files: [][]byte{zeroHeavy(16384), varied(16384)}}
	tally, err := Run(context.Background(), w, Config{Trials: 40, Seed: 5, Channels: specs})
	if err != nil {
		t.Fatal(err)
	}

	lossOf := func(c *ChannelTally) float64 {
		return 1 - float64(c.CellsDelivered)/float64(c.CellsSent)
	}
	iid := &tally.Channels[0]
	if iid.Corrupted == 0 {
		t.Fatal("i.i.d. drop formed no splice candidates; contrast is vacuous")
	}
	for i := 1; i < 3; i++ {
		c := &tally.Channels[i]
		// Matched severity: measured loss within ±30% of the i.i.d. rate.
		if r, r0 := lossOf(c), lossOf(iid); r < 0.7*r0 || r > 1.3*r0 {
			t.Errorf("%s: measured loss %.4f vs i.i.d. %.4f; channels must run at matched rate",
				c.Name, r, r0)
		}
		// Measurably different splice formation under the same average loss.
		if c.Corrupted == iid.Corrupted {
			t.Errorf("%s: corrupted count %d identical to i.i.d.; correlation has no effect",
				c.Name, c.Corrupted)
		}
		if c.Lost == iid.Lost {
			t.Errorf("%s: lost count %d identical to i.i.d.", c.Name, c.Lost)
		}
	}

	rep := tally.Report()
	if !strings.Contains(rep, "i.i.d. vs correlated cell loss at matched average rate") {
		t.Error("report missing the loss-contrast section")
	}
	for _, name := range []string{"drop-ge", "drop-burst"} {
		if !strings.Contains(rep, name) {
			t.Errorf("report missing channel %s", name)
		}
	}
}

// TestDropChannelTrialPurity: a DropChannel wrapping a correlated
// policy must be a pure function of the RNG state — StartStream resets
// the chain each Transmit, so two trials from equal seeds agree even
// though the policy carries cross-packet state within a trial.
func TestDropChannelTrialPurity(t *testing.T) {
	run := func() ([]atm.Cell, []int32) {
		s := makeStream(t, 600, 600, 600, 600)
		ch := &DropChannel{Policy: lossim.GilbertElliottAt(0.2, 5, 0.05, 0.9)}
		ch.Transmit(rand.New(rand.NewPCG(3, 9)), &s)
		return cellsOf(&s), s.Origin
	}
	c1, o1 := run()
	c2, o2 := run()
	if len(c1) != len(c2) || len(o1) != len(o2) {
		t.Fatalf("trial impure: %d vs %d cells survive equal seeds", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] || o1[i] != o2[i] {
			t.Fatalf("trial impure at cell %d", i)
		}
	}
	full := makeStream(t, 600, 600, 600, 600)
	if len(c1) >= full.Len() {
		t.Error("20% correlated loss dropped nothing; purity test is vacuous")
	}
}

// sparseCounters is a transfer of n 256-byte segments shaped like a
// gmon.out profile: zero bytes with a counter every 32 bytes, plus one
// random byte per segment so no two segments are alike.
func sparseCounters(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, seed))
	data := make([]byte, 256*n)
	for k := 0; k < n; k++ {
		seg := data[256*k:][:256]
		for i := 0; i+2 <= len(seg); i += 32 {
			seg[i+1] = 1
		}
		seg[rng.IntN(len(seg))] = byte(rng.Uint32())
	}
	return data
}

// TestDropChannelPolicies runs each lossim policy through DropChannel
// and the layered AAL5/TCP receiver over one transfer, and
// checks §7's receiver-side story: lossless and total-loss extremes,
// random loss leaving detected damage, PPD moving all damage to the
// framing check, EPD producing clean losses only, the correlated
// policies losing packets without undetected corruption, and heavy
// random loss forming splice candidates that pass framing and headers
// (the precursors Tables 1–3 count).  Every row checks that the
// receiver outcomes and the clean losses partition the packets sent,
// and that a rerun from the same seed reproduces the tally.
func TestDropChannelPolicies(t *testing.T) {
	for _, tc := range []struct {
		name            string
		packets, trials int
		policy          func() lossim.Policy
		check           func(c *ChannelTally, p PipelineTally) string
	}{
		{"lossless", 50, 1, func() lossim.Policy { return lossim.RandomLoss{P: 0} },
			func(c *ChannelTally, p PipelineTally) string {
				if p.Accepted != 50 || c.Lost != 0 || c.CellsDelivered != c.CellsSent {
					return "lossless run must deliver every packet intact"
				}
				return ""
			}},
		{"total-loss", 20, 1, func() lossim.Policy { return lossim.RandomLoss{P: 1} },
			func(c *ChannelTally, p PipelineTally) string {
				if c.Lost != 20 || c.CellsDelivered != 0 {
					return "total loss must deliver nothing"
				}
				return ""
			}},
		{"random", 400, 1, func() lossim.Policy { return lossim.RandomLoss{P: 0.05} },
			func(c *ChannelTally, p PipelineTally) string {
				if p.Framing+p.CRC+p.Header+p.Checksum == 0 {
					return "5% cell loss should produce detectable damage"
				}
				if p.Accepted == 0 {
					return "most packets should still arrive intact"
				}
				return ""
			}},
		// §7: with PPD a trailer is only delivered when all preceding
		// cells of its packet were delivered, so candidates either
		// reassemble exactly or carry stranded prefix cells that fail
		// the length check — the CRC and checksum are never consulted.
		{"ppd", 400, 1, func() lossim.Policy { return &lossim.PPD{P: 0.05} },
			func(c *ChannelTally, p PipelineTally) string {
				if p.CRC != 0 || p.Header != 0 || p.Checksum != 0 {
					return "PPD must leave nothing past the framing check"
				}
				if p.Framing == 0 {
					return "PPD should produce framing-detected partial packets"
				}
				// A rejected candidate carries the stranded prefix of a
				// lost packet; random loss rejects mostly packets that
				// lost a data cell and kept their trailer.
				if p.Framing > c.Lost {
					return "PPD framing rejections outnumber the lost packets whose prefixes they carry"
				}
				return ""
			}},
		{"epd", 400, 1, func() lossim.Policy { return &lossim.EPD{PacketP: 0.2} },
			func(c *ChannelTally, p PipelineTally) string {
				if p.Framing+p.CRC+p.Header+p.Checksum != 0 {
					return "EPD must never deliver a damaged PDU"
				}
				if c.Lost == 0 || p.Accepted == 0 {
					return "EPD at 20% should both lose and deliver packets"
				}
				return ""
			}},
		{"ge", 400, 1, func() lossim.Policy { return lossim.GilbertElliottAt(0.03, 5, 0.002, 0.402) },
			func(c *ChannelTally, p PipelineTally) string {
				if c.CellsDelivered == c.CellsSent || c.Lost == 0 || p.Accepted == 0 {
					return "3% correlated loss should both lose and deliver packets"
				}
				return ""
			}},
		{"burstdrop", 400, 1, func() lossim.Policy { return lossim.BurstDropAt(0.03, 4) },
			func(c *ChannelTally, p PipelineTally) string {
				if c.CellsDelivered == c.CellsSent || c.Lost == 0 || p.Accepted == 0 {
					return "3% burst loss should both lose and deliver packets"
				}
				return ""
			}},
		// Heavy random loss forms candidates that pass framing and the
		// header battery and are caught only by the CRC or the transport
		// checksum: the splices Tables 1–3 enumerate.  They are rare —
		// about one per three 3000-packet trials — so the row runs 20.
		{"splice-precursor", 3000, 20, func() lossim.Policy { return lossim.RandomLoss{P: 0.12} },
			func(c *ChannelTally, p PipelineTally) string {
				if p.CRC+p.Checksum == 0 {
					return "no splice candidate survived framing and headers at 12% loss"
				}
				return ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sliceWalker{files: [][]byte{sparseCounters(tc.packets, 1)}}
			run := func() ChannelTally {
				tally, err := Run(context.Background(), w, Config{
					Trials:     tc.trials,
					Seed:       7,
					Channels:   []ChannelSpec{{Name: tc.name, New: func() Channel { return &DropChannel{Policy: tc.policy()} }}},
					Algorithms: []algo.Algorithm{algo.MustLookup("tcp")},
					Placements: []Placement{PlaceE2E},
				})
				if err != nil {
					t.Fatal(err)
				}
				return tally.Channels[0]
			}
			c := run()
			p := c.Pipeline
			if want := uint64(tc.packets * tc.trials); c.PacketsSent != want {
				t.Fatalf("sent %d packets, want %d", c.PacketsSent, want)
			}
			if got := p.Accepted + p.AcceptedCorrupt + p.Framing + p.CRC + p.Header + p.Checksum + c.Lost; got != c.PacketsSent {
				t.Errorf("outcomes %+v and %d lost sum to %d, sent %d", p, c.Lost, got, c.PacketsSent)
			}
			// The AAL5 CRC-32 backstop makes undetected corruption
			// essentially impossible at these sample sizes.
			if p.AcceptedCorrupt != 0 {
				t.Errorf("undetected corruption with the CRC on: %d", p.AcceptedCorrupt)
			}
			if msg := tc.check(&c, p); msg != "" {
				t.Errorf("%s: %+v, lost %d", msg, p, c.Lost)
			}
			if again := run(); !reflect.DeepEqual(c, again) {
				t.Errorf("rerun from the same seed differs: %+v vs %+v", c, again)
			}
		})
	}
}

// TestCellShuffleMatchesGatheredModel holds the tag-level shuffle to the
// record model run over gathered payload bytes: for every packet with
// two or more data cells, the same rng draws and the same payload
// moves, including a packet whose first cells repeat (where the model's
// equality scans decide what moves) and a stranded tail with no
// trailer.
func TestCellShuffleMatchesGatheredModel(t *testing.T) {
	for _, model := range []errmodel.RecordModel{
		errmodel.Reorder{Unit: atm.PayloadSize},
		errmodel.Misinsert{Unit: atm.PayloadSize},
	} {
		moved := 0
		for seed := uint64(0); seed < 20; seed++ {
			s := makeStream(t, 400, 1, 300, 96, 500)
			// Zero the first four data cells of the third packet, so its
			// records repeat.
			for i, k := 0, 0; i < s.Len(); i++ {
				if s.Origin[i] == 2 && k < 4 {
					*s.Mutable(i) = [atm.PayloadSize]byte{}
					k++
				}
			}
			// Drop the last trailer: the fifth packet becomes a stranded tail.
			n := s.Len() - 1
			s.Hdr, s.Origin, s.Body = s.Hdr[:n], s.Origin[:n], s.Body[:n]
			want := cellsOf(&s)
			ref := rand.New(rand.NewPCG(seed, 8))
			for i := 0; i < len(want); {
				j := i
				for j < len(want) && !want[j].Header.EndOfPacket() {
					j++
				}
				if j >= len(want) {
					break
				}
				if ref.Float64() < 0.7 && j-i >= 2 {
					var buf []byte
					for k := i; k < j; k++ {
						buf = append(buf, want[k].Payload[:]...)
					}
					model.CorruptInPlace(ref, buf)
					for k := i; k < j; k++ {
						copy(want[k].Payload[:], buf[(k-i)*atm.PayloadSize:])
					}
				}
				i = j + 1
			}
			before := append([]int32{}, s.Body...)
			rng := rand.New(rand.NewPCG(seed, 8))
			(&CellShuffle{Model: model, PerPacket: 0.7}).Transmit(rng, &s)
			for i, c := range cellsOf(&s) {
				if c != want[i] {
					t.Fatalf("%s seed %d: cell %d differs from the gathered model's", model.Name(), seed, i)
				}
				if s.Body[i] != before[i] {
					moved++
				}
			}
			if rng.Uint64() != ref.Uint64() {
				t.Errorf("%s seed %d: the shuffle drew a different number of rng values", model.Name(), seed)
			}
		}
		if moved == 0 {
			t.Errorf("%s: no body tag moved; the test is vacuous", model.Name())
		}
	}
}

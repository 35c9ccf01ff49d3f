package netsim

import (
	"context"
	"strings"
	"testing"

	"realsum/internal/corpus"
	"realsum/internal/errmodel"
	"realsum/internal/lossim"
)

// sliceWalker serves handcrafted in-memory files, so shape tests can
// pick exactly the data structure a fault model exploits.
type sliceWalker struct {
	files [][]byte
}

func (s sliceWalker) Walk(fn func(path string, data []byte) error) error {
	for i, f := range s.files {
		if err := fn(string(rune('a'+i)), f); err != nil {
			return err
		}
	}
	return nil
}

// zeroHeavy is a file shaped like the paper's corpus: long 0x00 runs
// with islands of text — the data that makes solid bursts invisible to
// the ones-complement sum.
func zeroHeavy(n int) []byte {
	data := make([]byte, n)
	for i := 0; i < n; i += 512 {
		copy(data[i:], "filesystem block header")
	}
	return data
}

// varied is a file of distinct cell payloads, so record-level faults
// (reorder, misinsert) always change bytes.
func varied(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/48)
	}
	return data
}

func TestNetsimWorkersDeterministic(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.02).Build()
	for _, mode := range []Mode{ModeTCP, ModeUDPFrag} {
		cfg := Config{Mode: mode, Trials: 2, Seed: 42}
		var reports []string
		workerCounts := []int{1, 2, 8}
		for _, workers := range workerCounts {
			cfg.Workers = workers
			tally, err := Run(context.Background(), fs, cfg)
			if err != nil {
				t.Fatalf("mode %s workers %d: %v", mode, workers, err)
			}
			reports = append(reports, tally.Report())
		}
		for i := 1; i < len(reports); i++ {
			if reports[0] != reports[i] {
				t.Errorf("mode %s: report differs between workers=%d and workers=%d:\n%s\n---\n%s",
					mode, workerCounts[0], workerCounts[i], reports[0], reports[i])
			}
		}
	}
}

// TestNetsimAccountingInvariants pins the conservation laws every trial
// must satisfy: every sent packet is delivered or lost, every delivered
// candidate is intact or corrupted under every placement, the layered
// receiver assigns each candidate to exactly one outcome, and each
// placement's per-algorithm verdicts partition its corrupted count.
func TestNetsimAccountingInvariants(t *testing.T) {
	w := sliceWalker{files: [][]byte{zeroHeavy(4096), varied(3000), {}, varied(100)}}
	tally, err := Run(context.Background(), w, Config{Trials: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tally.Channels {
		if c.PDUsDelivered+c.Lost != c.PacketsSent {
			t.Errorf("%s: delivered %d + lost %d != sent %d", c.Name, c.PDUsDelivered, c.Lost, c.PacketsSent)
		}
		if c.Intact+c.Corrupted != c.PDUsDelivered {
			t.Errorf("%s: intact %d + corrupted %d != delivered %d", c.Name, c.Intact, c.Corrupted, c.PDUsDelivered)
		}
		p := c.Pipeline
		outcomes := p.Accepted + p.AcceptedCorrupt + p.Framing + p.CRC + p.Header + p.Checksum
		if outcomes != c.PDUsDelivered {
			t.Errorf("%s: pipeline outcomes %d != delivered %d", c.Name, outcomes, c.PDUsDelivered)
		}
		if len(c.Placements) != 2 {
			t.Fatalf("%s: %d placements in a default ModeTCP run, want 2", c.Name, len(c.Placements))
		}
		for _, pl := range c.Placements {
			if pl.Delivered != c.PDUsDelivered {
				t.Errorf("%s/%s: placement delivered %d != channel delivered %d",
					c.Name, pl.Name, pl.Delivered, c.PDUsDelivered)
			}
			if pl.Intact+pl.Corrupted != pl.Delivered {
				t.Errorf("%s/%s: intact %d + corrupted %d != delivered %d",
					c.Name, pl.Name, pl.Intact, pl.Corrupted, pl.Delivered)
			}
			for _, a := range pl.Algos {
				if a.Detected+a.Undetected != pl.Corrupted {
					t.Errorf("%s/%s/%s: detected %d + undetected %d != corrupted %d",
						c.Name, pl.Name, a.Name, a.Detected, a.Undetected, pl.Corrupted)
				}
			}
		}
		e2e := c.Placement(PlaceE2E.String())
		if e2e.Intact != c.Intact || e2e.Corrupted != c.Corrupted {
			t.Errorf("%s: e2e placement (%d/%d) disagrees with channel counters (%d/%d)",
				c.Name, e2e.Intact, e2e.Corrupted, c.Intact, c.Corrupted)
		}
		seg := c.Placement(PlaceSegment.String())
		for _, pos := range []AlgoTally{seg.HeaderPos, seg.TrailerPos} {
			if pos.Detected+pos.Undetected != seg.Corrupted {
				t.Errorf("%s/%s: detected %d + undetected %d != segment corrupted %d",
					c.Name, pos.Name, pos.Detected, pos.Undetected, seg.Corrupted)
			}
		}
		// Damage visible at segment granularity is visible end to end:
		// the segment span is a prefix of the PDU.
		if seg.Corrupted > e2e.Corrupted {
			t.Errorf("%s: segment placement saw %d corruptions but e2e only %d",
				c.Name, seg.Corrupted, e2e.Corrupted)
		}
	}
}

// TestNetsimBurstShape asserts the §7 acceptance claim: under 32-bit
// solid bursts over zero-heavy real data the TCP checksum is the
// weakest registered algorithm, while CRC-32 — which detects every
// burst of at most 32 bits unconditionally — stays at zero.
func TestNetsimBurstShape(t *testing.T) {
	w := sliceWalker{files: [][]byte{zeroHeavy(8192), zeroHeavy(6000)}}
	cfg := Config{
		Trials: 40,
		Seed:   1,
		Channels: []ChannelSpec{{Name: "burst", New: func() Channel {
			return &CellCorrupt{Model: errmodel.SolidBurst{Bits: 32}, PerCell: 0.05}
		}}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := tally.Shapes()[0]
	if s.Corrupted == 0 {
		t.Fatal("burst channel corrupted nothing; test is vacuous")
	}
	if s.Weakest != "tcp" {
		t.Errorf("weakest algorithm under solid bursts = %s (missed %d of %d), want tcp",
			s.Weakest, s.WeakestUndetect, s.Corrupted)
	}
	if s.TCPUndetected == 0 {
		t.Error("TCP checksum missed no solid bursts over zero-heavy data; expected misses")
	}
	if s.CRC32Undetected != 0 {
		t.Errorf("CRC-32 missed %d 32-bit bursts; must catch all bursts ≤ its width", s.CRC32Undetected)
	}
}

// TestNetsimReorderShape: swapping two whole 48-byte cell payloads
// permutes 16-bit columns, so the position-blind ones-complement sum
// misses every such corruption, while CRCs and Fletcher (positional)
// catch essentially all of them.
func TestNetsimReorderShape(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(8192)}}
	cfg := Config{
		Trials: 20,
		Seed:   2,
		Channels: []ChannelSpec{{Name: "reorder", New: func() Channel {
			return &CellShuffle{Model: errmodel.Reorder{Unit: 48}, PerPacket: 0.5}
		}}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.Corrupted == 0 {
		t.Fatal("reorder channel corrupted nothing; test is vacuous")
	}
	for _, a := range c.Placement(PlaceE2E.String()).Algos {
		switch a.Name {
		case "tcp":
			if a.Undetected != c.Corrupted {
				t.Errorf("tcp caught %d of %d cell reorders; the sum is position-blind and should miss all",
					a.Detected, c.Corrupted)
			}
		case "crc32", "crc32c", "crc64":
			if a.Undetected != 0 {
				t.Errorf("%s missed %d of %d cell reorders", a.Name, a.Undetected, c.Corrupted)
			}
		}
	}
}

// TestNetsimDropLosesPackets checks the splice-forming channel: cell
// loss must strand packets (lost trailers) and corrupt others (splices
// claiming the surviving trailer's identity).
func TestNetsimDropLosesPackets(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(16384)}}
	cfg := Config{
		Trials: 10,
		Seed:   3,
		Channels: []ChannelSpec{{Name: "drop", New: func() Channel {
			return &DropChannel{Policy: lossim.RandomLoss{P: 0.02}}
		}}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tally.Channels[0]
	if c.Lost == 0 {
		t.Error("2% cell loss over 10 trials lost no packets")
	}
	if c.CellsDelivered >= c.CellsSent {
		t.Errorf("delivered %d cells of %d sent under loss", c.CellsDelivered, c.CellsSent)
	}
	// Every corrupted candidate under pure loss is a splice; the AAL5
	// length check or CRC must reject anything the framing passes.
	if c.Pipeline.AcceptedCorrupt != 0 {
		t.Errorf("receiver accepted %d corrupted splices past TCP/IP checks", c.Pipeline.AcceptedCorrupt)
	}
}

// TestNetsimUDPFragAccounting runs the fragmentation mode and checks
// the datagram conservation law.
func TestNetsimUDPFragAccounting(t *testing.T) {
	files := [][]byte{varied(5000), zeroHeavy(3000), varied(100)}
	w := sliceWalker{files: files}
	cfg := Config{Mode: ModeUDPFrag, Trials: 4, Seed: 4}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dgPerTrial uint64
	for _, f := range files {
		n := (len(f) + 1023) / 1024
		if n < 1 {
			n = 1
		}
		dgPerTrial += uint64(n)
	}
	for _, c := range tally.Channels {
		p := c.Pipeline
		got := p.DatagramsIntact + p.DatagramsLost + p.FragReject + p.UDPCaught + p.UDPUndetected
		if got != dgPerTrial*uint64(cfg.Trials) {
			t.Errorf("%s: datagram outcomes %d != %d datagrams × %d trials",
				c.Name, got, dgPerTrial, cfg.Trials)
		}
	}
}

// TestNetsimZeroAllocTrial guards the per-trial hot path: after one
// warm-up pass over a file, repeated trials on every default channel
// must not allocate, in either transport mode (ModeUDPFrag's IP
// reassembly included).
func TestNetsimZeroAllocTrial(t *testing.T) {
	for _, mode := range []Mode{ModeTCP, ModeUDPFrag} {
		w := newWorker(Config{Mode: mode, Trials: 2, Seed: 9})
		data := varied(8192)
		w.file(0, data) // warm-up: sizes every reusable buffer
		for c := range w.chans {
			c := c
			allocs := testing.AllocsPerRun(20, func() {
				w.trial(0, c, 0)
			})
			if allocs != 0 {
				t.Errorf("%s channel %s: %v allocs per trial, want 0", mode, w.tally.Channels[c].Name, allocs)
			}
		}
	}
}

func TestNetsimMergeCommutative(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(2000), zeroHeavy(2000)}}
	run := func(seed uint64) *Tally {
		tally, err := Run(context.Background(), w, Config{Trials: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tally
	}
	ab1, ab2 := run(1), run(2)
	ba1, ba2 := run(1), run(2)
	if err := ab1.Merge(ab2); err != nil {
		t.Fatal(err)
	}
	if err := ba2.Merge(ba1); err != nil {
		t.Fatal(err)
	}
	if ab1.Report() != ba2.Report() {
		t.Error("Merge is not commutative: A+B and B+A reports differ")
	}
}

func TestChannelsByName(t *testing.T) {
	specs, unknown := ChannelsByName([]string{"burst", "drop", "nosuch"})
	if len(specs) != 2 || specs[0].Name != "drop" || specs[1].Name != "burst" {
		t.Errorf("got %d specs (want drop,burst in battery order)", len(specs))
	}
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Errorf("unknown = %v, want [nosuch]", unknown)
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for f := 0; f < 8; f++ {
		for c := 0; c < 5; c++ {
			for tr := 0; tr < 8; tr++ {
				s := TrialSeed(42, f, c, tr)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between (%d,%d,%d) and %s", f, c, tr, prev)
				}
				seen[s] = strings.Join([]string{string(rune('0' + f)), string(rune('0' + c)), string(rune('0' + tr))}, ",")
			}
		}
	}
	if TrialSeed(1, 0, 0, 0) == TrialSeed(2, 0, 0, 0) {
		t.Error("root seed does not alter trial seeds")
	}
}

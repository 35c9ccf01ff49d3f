package netsim

import (
	"context"
	"strings"
	"testing"

	"realsum/internal/corpus"
	"realsum/internal/errmodel"
	"realsum/internal/lossim"
)

// TestNetsimCompressedWorkersDeterministic extends the engine's
// byte-identity guarantee to the LZ payload stage: compression is a
// pure per-file function, so reports at 1, 2 and 8 workers must stay
// identical with -compress on, in both transport modes.
func TestNetsimCompressedWorkersDeterministic(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.02).Build()
	for _, mode := range []Mode{ModeTCP, ModeUDPFrag} {
		cfg := Config{Mode: mode, Trials: 2, Seed: 42, Compress: true}
		var reports []string
		workerCounts := []int{1, 2, 8}
		for _, workers := range workerCounts {
			cfg.Workers = workers
			tally, err := Run(context.Background(), fs, cfg)
			if err != nil {
				t.Fatalf("mode %s workers %d: %v", mode, workers, err)
			}
			if !tally.Compressed {
				t.Fatalf("mode %s: tally from a Compress run is not marked Compressed", mode)
			}
			reports = append(reports, tally.Report())
		}
		for i := 1; i < len(reports); i++ {
			if reports[0] != reports[i] {
				t.Errorf("mode %s: compressed report differs between workers=%d and workers=%d:\n%s\n---\n%s",
					mode, workerCounts[0], workerCounts[i], reports[0], reports[i])
			}
		}
	}
}

// TestNetsimCompressedAccounting: the channel conservation laws hold
// unchanged on compressed payloads, and the Comp stats account for
// every walked file with ordered ratios.
func TestNetsimCompressedAccounting(t *testing.T) {
	files := [][]byte{zeroHeavy(4096), varied(3000), {}, varied(100)}
	w := sliceWalker{files: files}
	tally, err := Run(context.Background(), w, Config{Trials: 5, Seed: 7, Compress: true})
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
		for _, pl := range c.Placements {
			for _, a := range pl.Algos {
				if a.Detected+a.Undetected != pl.Corrupted {
					t.Errorf("%s/%s/%s: detected %d + undetected %d != corrupted %d",
						c.Name, pl.Name, a.Name, a.Detected, a.Undetected, pl.Corrupted)
				}
			}
		}
	}

	var raw uint64
	for _, f := range files {
		raw += uint64(len(f))
	}
	if tally.Comp.Files != uint64(len(files)) {
		t.Errorf("Comp.Files = %d, want %d (one add per walked file)", tally.Comp.Files, len(files))
	}
	if tally.Comp.RawBytes != raw {
		t.Errorf("Comp.RawBytes = %d, want %d", tally.Comp.RawBytes, raw)
	}
	if tally.Comp.CompBytes == 0 {
		t.Error("Comp.CompBytes = 0 after compressing non-empty files")
	}
	min, minOK := tally.Comp.MinRatio()
	mean, meanOK := tally.Comp.MeanRatio()
	max, maxOK := tally.Comp.MaxRatio()
	if !minOK || !meanOK || !maxOK {
		t.Errorf("ratios unknown after compressing non-empty files: %+v", tally.Comp)
	}
	if !(min > 0 && min <= max) {
		t.Errorf("ratio extremes out of order: min=%v max=%v", min, max)
	}
	if mean < min || mean > max {
		t.Errorf("mean ratio %v outside [min=%v, max=%v]", mean, min, max)
	}
	if !strings.Contains(tally.Report(), "lz payload stage:") {
		t.Error("compressed report lacks the lz ratio header line")
	}
	if !strings.Contains(tally.Report(), "shape[tcp+lz/") {
		t.Error("compressed report pin lines not relabeled tcp+lz")
	}
}

// TestNetsimCompressedZeroAllocTrial: the per-trial hot path stays
// allocation-free with the LZ stage enabled, and after buffer warm-up
// the whole per-file cycle (Reset, Compress, rebuild, trials) settles
// to zero steady-state allocations too.
func TestNetsimCompressedZeroAllocTrial(t *testing.T) {
	w := newWorker(Config{Trials: 2, Seed: 9, Compress: true})
	data := zeroHeavy(8192)
	w.file(0, data) // warm-up: sizes every reusable buffer, compBuf included
	for c := range w.chans {
		c := c
		allocs := testing.AllocsPerRun(20, func() {
			w.trial(0, c, 0)
		})
		if allocs != 0 {
			t.Errorf("channel %s: %v allocs per trial, want 0", w.tally.Channels[c].Name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		w.file(0, data)
	}); allocs != 0 {
		t.Errorf("per-file cycle with compression: %v allocs, want 0", allocs)
	}
}

// TestNetsimTable7Convergence is the acceptance claim, measured by
// injection at a pinned seed: over zero-heavy data, solid bursts and
// loss-formed splices slip past the ones-complement and
// position-weighted sums (Table 7's "nonrandom data" rates), but once
// the payload passes the LZ stage the same fault processes hit
// near-uniform bytes and the misses collapse toward the 2^-k floor —
// here, with a few hundred corrupted deliveries, to (almost) none.
func TestNetsimTable7Convergence(t *testing.T) {
	w := sliceWalker{files: [][]byte{zeroHeavy(16384), zeroHeavy(12000)}}
	cfg := Config{
		Trials: 30,
		Seed:   11,
		Channels: []ChannelSpec{
			{Name: "burst", New: func() Channel {
				return &CellCorrupt{Model: errmodel.SolidBurst{Bits: 32}, PerCell: 0.05}
			}},
			{Name: "drop", New: func() Channel {
				return &DropChannel{Policy: lossim.RandomLoss{P: 0.02}}
			}},
		},
	}
	run := func(compress bool) *Tally {
		c := cfg
		c.Compress = compress
		tally, err := Run(context.Background(), w, c)
		if err != nil {
			t.Fatal(err)
		}
		return tally
	}
	raw, comp := run(false), run(true)

	// Bursts, scored on the per-segment span — the transport-checksum
	// coverage, which excludes the AAL5 zero padding whose inversion
	// cancels in the ones-complement sum regardless of payload.
	for _, algoName := range []string{"tcp", "f255", "adler32"} {
		rawMiss := placementUndetected(t, raw, "burst", PlaceSegment.String(), algoName)
		compMiss := placementUndetected(t, comp, "burst", PlaceSegment.String(), algoName)
		if algoName == "tcp" && rawMiss < 10 {
			t.Fatalf("raw burst run produced only %d tcp misses; the zero-heavy premise failed", rawMiss)
		}
		// The compressed payload is near-uniform: for any of these sums a
		// residual miss is a ~2^-16 (or rarer) event, so over a few hundred
		// corruptions the count must collapse from the raw run's rate.
		if compMiss > rawMiss/8 {
			t.Errorf("%s burst misses did not converge: raw=%d compressed=%d", algoName, rawMiss, compMiss)
		}
	}
	// Splices from cell loss live at PDU granularity: zero-run deletions
	// are invisible to the sums on raw data, detected at the floor rate
	// once compressed.
	rawSplice := placementUndetected(t, raw, "drop", PlaceE2E.String(), "tcp")
	compSplice := placementUndetected(t, comp, "drop", PlaceE2E.String(), "tcp")
	if rawSplice == 0 {
		t.Fatal("raw drop run produced no tcp splice misses; the zero-heavy premise failed")
	}
	if compSplice > rawSplice/8 {
		t.Errorf("tcp splice misses did not converge: raw=%d compressed=%d", rawSplice, compSplice)
	}

	// The contrast section renders the same evidence.
	out := RawVsCompressedReport(raw, comp)
	for _, want := range []string{
		"raw vs lz-compressed payload",
		"uniform floor:",
		"compress[tcp/burst]:",
		"compress[tcp/drop]:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("contrast report lacks %q:\n%s", want, out)
		}
	}
}

// placementUndetected reads one algorithm's undetected count under the
// named channel and placement.
func placementUndetected(t *testing.T, tally *Tally, channel, placement, algoName string) uint64 {
	t.Helper()
	c, ok := tally.Channel(channel)
	if !ok {
		t.Fatalf("channel %s missing from tally", channel)
	}
	p := c.Placement(placement)
	if p == nil {
		t.Fatalf("placement %s missing from %s", placement, channel)
	}
	a, ok := p.Algo(algoName)
	if !ok {
		t.Fatalf("algorithm %s missing from %s", algoName, channel)
	}
	return a.Undetected
}

// TestRawVsCompressedEmptySides is the report-hardening regression: the
// contrast must render — no index panic, no divide-by-zero — when a
// channel exists on only one side, when a shared channel scored zero
// corrupted deliveries on one side, and when one tally is empty.
func TestRawVsCompressedEmptySides(t *testing.T) {
	rawCfg := Config{Channels: []ChannelSpec{
		{Name: "only-raw", New: func() Channel { return &DropChannel{Policy: lossim.RandomLoss{P: 0.1}} }},
		{Name: "shared", New: func() Channel { return &DropChannel{Policy: lossim.RandomLoss{P: 0.1}} }},
	}}
	compCfg := Config{Compress: true, Channels: []ChannelSpec{
		{Name: "shared", New: func() Channel { return &DropChannel{Policy: lossim.RandomLoss{P: 0.1}} }},
		{Name: "only-lz", New: func() Channel { return &DropChannel{Policy: lossim.RandomLoss{P: 0.1}} }},
	}}
	raw, comp := NewTally(rawCfg), NewTally(compCfg)

	// Populate only raw/"only-raw": the shared channel has zero corrupted
	// deliveries on both sides, and each side has a channel the other
	// never ran.
	c, _ := raw.Channel("only-raw")
	e2e := c.Placement(PlaceE2E.String())
	e2e.Corrupted = 7
	for i := range e2e.Algos {
		e2e.Algos[i].Detected = 5
		e2e.Algos[i].Undetected = 2
	}

	out := RawVsCompressedReport(raw, comp)
	for _, want := range []string{
		"only-raw", "shared", "only-lz",
		"compress[tcp/only-raw]: raw_corrupted=7 lz_corrupted=-",
		"compress[tcp/only-lz]: raw_corrupted=- lz_corrupted=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("contrast report lacks %q:\n%s", want, out)
		}
	}
	// Zero-candidate sides render "-" cells, never a fake 0% rate.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "shared") && !strings.Contains(line, "compress[") {
			if !strings.Contains(line, "-") {
				t.Errorf("zero-candidate shared row lacks '-' cells: %q", line)
			}
			if strings.Contains(line, "0.0") {
				t.Errorf("zero-candidate shared row renders a fake rate: %q", line)
			}
		}
	}

	// Two empty tallies must still render without panicking.
	if out := RawVsCompressedReport(NewTally(Config{}), NewTally(Config{Compress: true})); out == "" {
		t.Error("contrast of two empty tallies rendered nothing")
	}
}

// TestCompStatsMergeCommutative: the ratio extremes survive merging in
// either order, and empty files never contribute a ratio.
func TestCompStatsMergeCommutative(t *testing.T) {
	build := func(pairs [][2]uint64) CompStats {
		var s CompStats
		for _, p := range pairs {
			s.add(p[0], p[1])
		}
		return s
	}
	a := build([][2]uint64{{1000, 400}, {0, 0}, {500, 490}})
	b := build([][2]uint64{{2000, 300}, {100, 99}})

	ab, ba := a, b
	ab.merge(&b)
	ba.merge(&a)
	if ab != ba {
		t.Errorf("CompStats merge not commutative:\nA+B %+v\nB+A %+v", ab, ba)
	}
	if ab.Files != 5 || ab.RawBytes != 3600 || ab.CompBytes != 1289 {
		t.Errorf("merged totals wrong: %+v", ab)
	}
	if ab.MinComp != 300 || ab.MinRaw != 2000 {
		t.Errorf("min ratio pair = %d/%d, want 300/2000", ab.MinComp, ab.MinRaw)
	}
	if ab.MaxComp != 99 || ab.MaxRaw != 100 {
		t.Errorf("max ratio pair = %d/%d, want 99/100", ab.MaxComp, ab.MaxRaw)
	}

	var empty CompStats
	empty.add(0, 0)
	if _, ok := empty.MinRatio(); empty.MinRaw != 0 || ok {
		t.Errorf("empty file contributed a ratio: %+v", empty)
	}
	withEmpty := a
	withEmpty.merge(&empty)
	if withEmpty.MinComp != a.MinComp || withEmpty.MaxComp != a.MaxComp {
		t.Error("merging an all-empty CompStats disturbed the extremes")
	}
}

package netsim

import (
	"context"
	"strings"
	"testing"
)

// TestTallyMergeShapeMismatch is the regression test for the unguarded
// index-aligned merge: merging tallies of different shapes must fail
// with an error naming the mismatched element instead of silently
// misattributing counts.  Each case failed (merged garbage or panicked)
// before Merge validated shapes.
func TestTallyMergeShapeMismatch(t *testing.T) {
	base := func() *Tally {
		return newTally("tcp", []string{"drop", "burst"}, []string{"tcp", "crc32"}, []string{"e2e"}, false, 0)
	}
	cases := []struct {
		name string
		o    *Tally
		want string
	}{
		{"mode", newTally("udpfrag", []string{"drop", "burst"}, []string{"tcp", "crc32"}, []string{"e2e"}, false, 0), `mode "tcp" vs "udpfrag"`},
		{"channel-name", newTally("tcp", []string{"drop", "dup"}, []string{"tcp", "crc32"}, []string{"e2e"}, false, 0), `channel[1] "burst" vs "dup"`},
		{"channel-count", newTally("tcp", []string{"drop"}, []string{"tcp", "crc32"}, []string{"e2e"}, false, 0), "2 vs 1 channels"},
		{"algo-name", newTally("tcp", []string{"drop", "burst"}, []string{"tcp", "fletcher"}, []string{"e2e"}, false, 0), `algo[1] "crc32" vs "fletcher"`},
		{"placement", newTally("tcp", []string{"drop", "burst"}, []string{"tcp", "crc32"}, []string{"segment"}, false, 0), `placement[0] "e2e" vs "segment"`},
		{"retrans", newTally("tcp", []string{"drop", "burst"}, []string{"tcp", "crc32"}, []string{"e2e"}, true, 8), "retrans false/cap=0 vs true/cap=8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := base()
			dst.Channels[0].Trials = 7
			err := dst.Merge(tc.o)
			if err == nil {
				t.Fatalf("merging mismatched shape (%s) succeeded", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the mismatch %q", err, tc.want)
			}
			if dst.Channels[0].Trials != 7 {
				t.Error("tally modified by a failed merge")
			}
		})
	}

	// The happy path must still merge: same shape, counts add.
	a, b := base(), base()
	a.Channels[0].Trials, b.Channels[0].Trials = 3, 4
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-shape merge: %v", err)
	}
	if a.Channels[0].Trials != 7 {
		t.Errorf("merged trials = %d, want 7", a.Channels[0].Trials)
	}
}

// TestCompStatsOverflowBoundary is the regression test for the uint64
// cross-multiplication in the min/max ratio selection: once comp·raw
// exceeds 2^64 (files ≥ 4 GiB), the old comparison wrapped and could
// invert the selection.  Both cases below give wrong answers with
// `comp*raw < minComp*minRaw`-style arithmetic and correct ones with
// the 128-bit ratioLess.
func TestCompStatsOverflowBoundary(t *testing.T) {
	const gib = uint64(1) << 30
	wantMax := float64(5*gib) / float64(6*gib)

	var s CompStats
	s.add(6*gib, 3*gib) // ratio 0.5 — the true minimum
	s.add(4*gib, 3*gib) // ratio 0.75; old math wraps 3G·6G and replaces the min
	if got, _ := s.MinRatio(); got != 0.5 {
		t.Errorf("MinRatio after ≥4GiB adds = %v, want 0.5", got)
	}

	var m CompStats
	m.add(6*gib, 5*gib) // ratio ≈0.833 — the true maximum
	m.add(4*gib, 3*gib) // ratio 0.75; old math wraps 5G·4G and replaces the max
	if got, _ := m.MaxRatio(); got != wantMax {
		t.Errorf("MaxRatio after ≥4GiB adds = %v, want %v", got, wantMax)
	}

	// The same boundary holds across merge: shard-local extrema compared
	// with the same 128-bit arithmetic.
	var agg CompStats
	agg.merge(&s)
	agg.merge(&m)
	if got, _ := agg.MinRatio(); got != 0.5 {
		t.Errorf("merged MinRatio = %v, want 0.5", got)
	}
	if got, _ := agg.MaxRatio(); got != wantMax {
		t.Errorf("merged MaxRatio = %v, want %v", got, wantMax)
	}

	// Sub-boundary sanity: small files must behave identically.
	var sm CompStats
	sm.add(100, 80)
	sm.add(100, 20)
	smMin, _ := sm.MinRatio()
	smMax, _ := sm.MaxRatio()
	if smMin != 0.2 || smMax != 0.8 {
		t.Errorf("small-file extrema = %v/%v, want 0.2/0.8", smMin, smMax)
	}
}

// TestAlgoTallyRateZeroCandidates is the regression test for the
// zero-candidate miss rate: a channel that never corrupted anything is
// not evidence of a perfect detector, so Rate reports ok == false and
// every renderer shows "-" instead of 0%.
func TestAlgoTallyRateZeroCandidates(t *testing.T) {
	var a AlgoTally
	if r, ok := a.Rate(); ok || r != 0 {
		t.Errorf("zero-candidate Rate() = %v, %v; want 0, false", r, ok)
	}
	if got := rateCell(a); got != "-" {
		t.Errorf("zero-candidate rateCell = %q, want \"-\"", got)
	}

	a.Detected, a.Undetected = 3, 1
	if r, ok := a.Rate(); !ok || r != 0.25 {
		t.Errorf("Rate() = %v, %v; want 0.25, true", r, ok)
	}

	// End to end: a lossless channel scores no corrupted deliveries, so
	// the report's per-algorithm cells must all render "-".
	w := sliceWalker{files: [][]byte{varied(4000)}}
	tally, err := Run(context.Background(), w, Config{
		Trials:   2,
		Seed:     3,
		Channels: []ChannelSpec{{Name: "nop", New: func() Channel { return nopChannel{} }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := tally.Report()
	if !strings.Contains(rep, "-") {
		t.Error("lossless report missing the \"-\" zero-candidate cells")
	}
	if strings.Contains(rep, "0.000000%") {
		t.Error("lossless report renders a fake 0% miss rate for zero candidates")
	}
}

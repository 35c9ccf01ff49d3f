package experiments

import (
	"strings"
	"testing"

	"realsum/internal/netsim"
)

// TestNetSimReportDeterministicAcrossWorkers extends the tentpole
// worker-independence guarantee to the fault-injection pass: the
// rendered netsim report is byte-identical at any worker count, and at
// any root seed.
func TestNetSimReportDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{0, 99} {
		base := NetSimReport(NetSim(Config{Scale: 0.03, Workers: 1, Seed: seed}))
		for _, w := range []int{2, 8} {
			if got := NetSimReport(NetSim(Config{Scale: 0.03, Workers: w, Seed: seed})); got != base {
				t.Errorf("seed %d: netsim output differs between 1 and %d workers", seed, w)
			}
		}
	}
}

// TestNetSimShapeClaims pins the §7 acceptance claim at experiment
// scale: under the solid-burst channel the TCP checksum is the weakest
// registered algorithm and CRC-32 stays at its uniform (zero) rate.
func TestNetSimShapeClaims(t *testing.T) {
	d := NetSim(Config{Scale: 0.1, Workers: 4})
	for _, s := range d.TCP.Shapes() {
		if !strings.HasPrefix(s.Channel, "burst") {
			continue
		}
		if s.Corrupted == 0 {
			t.Fatal("burst channel corrupted nothing at scale 0.1")
		}
		if s.Weakest != "tcp" {
			t.Errorf("weakest under bursts = %s (%d of %d), want tcp", s.Weakest, s.WeakestUndetect, s.Corrupted)
		}
		if s.CRC32Undetected != 0 {
			t.Errorf("CRC-32 missed %d bursts, want 0", s.CRC32Undetected)
		}
	}
	if !strings.Contains(NetSimReport(d), "shape[tcp/burst]") {
		t.Error("NetSimReport missing shape lines")
	}

	// The correlated-loss tentpole at experiment scale: all three drop
	// channels run at a matched 1% average rate, yet the Gilbert–Elliott
	// and burst-drop channels form a measurably different number of
	// splice candidates than i.i.d. drop, and the rendered report
	// carries the contrast section.
	iid, ok1 := d.TCP.Channel("drop")
	ge, ok2 := d.TCP.Channel("drop-ge")
	bd, ok3 := d.TCP.Channel("drop-burst")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("TCP tally missing one of the drop/drop-ge/drop-burst channels")
	}
	if iid.Corrupted == 0 {
		t.Fatal("i.i.d. drop corrupted nothing at scale 0.1")
	}
	for _, c := range []*netsim.ChannelTally{ge, bd} {
		loss := 1 - float64(c.CellsDelivered)/float64(c.CellsSent)
		iidLoss := 1 - float64(iid.CellsDelivered)/float64(iid.CellsSent)
		if loss < 0.7*iidLoss || loss > 1.3*iidLoss {
			t.Errorf("%s: measured loss %.4f vs i.i.d. %.4f, want matched", c.Name, loss, iidLoss)
		}
		if c.Corrupted == iid.Corrupted {
			t.Errorf("%s: splice-candidate count %d identical to i.i.d.", c.Name, c.Corrupted)
		}
	}
	if !strings.Contains(NetSimReport(d), "i.i.d. vs correlated cell loss at matched average rate") {
		t.Error("NetSimReport missing the loss-contrast section")
	}

	// The Table 7 axis at experiment scale: the compressed pass ran the
	// same battery, its ratio stats landed, and the rendered report
	// carries both the +lz pin lines and the raw-vs-compressed contrast
	// section, with the bellwether burst misses collapsing toward the
	// uniform floor.
	if d.TCPLZ == nil || !d.TCPLZ.Compressed {
		t.Fatal("NetSim did not run the compressed TCP pass")
	}
	if mean, ok := d.TCPLZ.Comp.MeanRatio(); d.TCPLZ.Comp.Files == 0 || !ok || mean <= 0 || mean >= 1 {
		t.Errorf("compressed pass ratio stats: %+v", d.TCPLZ.Comp)
	}
	// Convergence is asserted on the per-segment span: the e2e span
	// includes the AAL5 zero padding, where a solid burst cancels in the
	// ones-complement sum regardless of payload content, flooring the
	// e2e rate at the padding fraction.
	rawBurst, _ := d.TCP.Channel("burst")
	lzBurst, _ := d.TCPLZ.Channel("burst")
	rawTCP, _ := rawBurst.Placement(netsim.PlaceSegment.String()).Algo("tcp")
	lzTCP, _ := lzBurst.Placement(netsim.PlaceSegment.String()).Algo("tcp")
	if rawTCP.Undetected == 0 {
		t.Fatal("raw burst pass: tcp missed nothing at scale 0.1")
	}
	if lzTCP.Undetected > rawTCP.Undetected/8 {
		t.Errorf("tcp burst misses did not converge: raw=%d lz=%d", rawTCP.Undetected, lzTCP.Undetected)
	}
	report := NetSimReport(d)
	for _, want := range []string{
		"shape[tcp+lz/burst]",
		"raw vs lz-compressed payload",
		"compress[tcp/burst]:",
		"lz payload stage:",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("NetSimReport missing %q", want)
		}
	}
}

// TestNetSimSeedChangesResults: the root seed must actually reach the
// trial RNGs — different seeds, different fault patterns.
func TestNetSimSeedChangesResults(t *testing.T) {
	a := NetSimReport(NetSim(Config{Scale: 0.03, Workers: 2, Seed: 1}))
	b := NetSimReport(NetSim(Config{Scale: 0.03, Workers: 2, Seed: 2}))
	if a == b {
		t.Error("netsim report identical under different root seeds")
	}
}

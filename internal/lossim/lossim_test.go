package lossim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestDeterminism holds every policy to the determinism contract netsim
// trials rely on: a stream driven from an RNG state drops the same
// cells every time, on a fresh policy or on one reused after a whole
// stream.  (TestPolicyStateContract checks the resets themselves.)
func TestDeterminism(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return RandomLoss{P: 0.1} },
		func() Policy { return &PPD{P: 0.1} },
		func() Policy { return &EPD{PacketP: 0.3} },
		func() Policy { return GilbertElliottAt(0.1, 5, 0.02, 0.8) },
		func() Policy { return BurstDropAt(0.1, 4) },
	} {
		pol := mk()
		first := driveWithPackets(pol, 5000, 7, 42)
		if !slices.Contains(first, true) || !slices.Contains(first, false) {
			t.Errorf("%s: drop pattern is constant; test is vacuous", pol.Name())
		}
		if fresh := driveWithPackets(mk(), 5000, 7, 42); !slices.Equal(first, fresh) {
			t.Errorf("%s: equal RNG states dropped different cells", pol.Name())
		}
		if reused := driveWithPackets(pol, 5000, 7, 42); !slices.Equal(first, reused) {
			t.Errorf("%s: a reused policy dropped different cells from the same RNG state", pol.Name())
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (RandomLoss{}).Name() != "random" || (&PPD{}).Name() != "ppd" || (&EPD{}).Name() != "epd" {
		t.Error("policy names")
	}
	if (&GilbertElliott{}).Name() != "ge" || (&BurstDrop{}).Name() != "burstdrop" {
		t.Error("correlated policy names")
	}
}

// TestPolicyStateContract pins the Policy state contract by driving
// policies across a packet boundary: per-packet state (PPD's damaged
// latch, EPD's drop decision) must reset at StartPacket, while stream
// state (the Gilbert–Elliott chain, BurstDrop's run latch) must survive
// StartPacket and reset only at StartStream.  This is the reset bug the
// contract exists to prevent: a correlated policy whose StartPacket
// clears the chain is i.i.d. in disguise.
func TestPolicyStateContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))

	// PPD: packet state. Damage in packet 1 must not leak into packet 2.
	p := &PPD{P: 0}
	p.StartStream(rng)
	p.StartPacket(rng)
	p.damaged = true
	if !p.Drop(rng, false) {
		t.Error("PPD: damaged packet must keep dropping")
	}
	p.StartPacket(rng)
	if p.Drop(rng, false) {
		t.Error("PPD: damaged latch must reset at packet start")
	}

	// EPD: packet state. A dropping decision dies with its packet (P=0
	// means the next packet is never dropped).
	e := &EPD{PacketP: 0}
	e.StartStream(rng)
	e.dropping = true
	e.StartPacket(rng)
	if e.Drop(rng, false) {
		t.Error("EPD: drop decision must be re-sampled at packet start")
	}

	// GilbertElliott: stream state. A Bad chain entered during packet 1
	// must still be Bad at the first cell of packet 2, and reset only at
	// stream start. PBadGood=0 pins the chain; DropBad=1/DropGood=0 make
	// the state observable through Drop.
	g := &GilbertElliott{PGoodBad: 0, PBadGood: 0, DropGood: 0, DropBad: 1}
	g.StartStream(rng)
	g.bad = true
	g.StartPacket(rng)
	if !g.Drop(rng, false) {
		t.Error("GilbertElliott: chain state must survive the packet boundary")
	}
	g.StartStream(rng)
	g.StartPacket(rng)
	if g.Drop(rng, false) {
		t.Error("GilbertElliott: chain must restart Good at stream start")
	}

	// The same, driven behaviourally across two packets: with
	// PGoodBad=1, DropGood=0, DropBad=1, PBadGood=0 the first cell of
	// the stream survives and flips the chain Bad; every later cell of
	// *both* packets is dropped.  A per-packet reset would deliver the
	// first cell of packet 2.
	g2 := &GilbertElliott{PGoodBad: 1, PBadGood: 0, DropGood: 0, DropBad: 1}
	g2.StartStream(rng)
	g2.StartPacket(rng)
	if g2.Drop(rng, false) {
		t.Error("GilbertElliott: first Good cell must survive")
	}
	if !g2.Drop(rng, false) {
		t.Error("GilbertElliott: chain must have gone Bad inside packet 1")
	}
	g2.StartPacket(rng)
	if !g2.Drop(rng, false) {
		t.Error("GilbertElliott: Bad sojourn must cross into packet 2")
	}

	// BurstDrop: stream state. An active run claims the head of the next
	// packet (Continue=1 pins the run).
	b := &BurstDrop{Start: 0, Continue: 1}
	b.StartStream(rng)
	b.inRun = true
	b.StartPacket(rng)
	if !b.Drop(rng, false) {
		t.Error("BurstDrop: active run must survive the packet boundary")
	}
	b.StartStream(rng)
	b.StartPacket(rng)
	if b.Drop(rng, false) {
		t.Error("BurstDrop: run latch must reset at stream start")
	}
}

// TestCorrelatedMatchedAverageLoss checks both halves of the "matched
// average rate" construction: the closed-form AvgLoss of the *At
// constructors equals the requested rate exactly, and the empirical
// rate over a long stream agrees for all three processes.
func TestCorrelatedMatchedAverageLoss(t *testing.T) {
	const rate = 0.01
	ge := GilbertElliottAt(rate, 5, 0.002, 0.402)
	bd := BurstDropAt(rate, 4)
	if got := ge.AvgLoss(); got < rate-1e-12 || got > rate+1e-12 {
		t.Errorf("GilbertElliottAt(%v).AvgLoss() = %v", rate, got)
	}
	if got := bd.AvgLoss(); got < rate-1e-12 || got > rate+1e-12 {
		t.Errorf("BurstDropAt(%v).AvgLoss() = %v", rate, got)
	}
	const n = 400000
	for _, pol := range []Policy{RandomLoss{P: rate}, ge, bd} {
		drops := 0
		for _, d := range driveWithPackets(pol, n, 0, 99) {
			if d {
				drops++
			}
		}
		got := float64(drops) / n
		if got < 0.8*rate || got > 1.2*rate {
			t.Errorf("%s: empirical loss %.5f, want ≈ %.3f", pol.Name(), got, rate)
		}
	}
}

// TestCorrelatedLossClusters measures P(drop | previous cell dropped):
// at a 1%% average rate it stays ≈1%% for the i.i.d. process but is an
// order of magnitude higher for both correlated processes — the
// clustering the channels exist to inject.
func TestCorrelatedLossClusters(t *testing.T) {
	const rate, n = 0.01, 400000
	cond := func(pol Policy) float64 {
		drops := driveWithPackets(pol, n, 0, 7)
		after, both := 0, 0
		for i := 1; i < n; i++ {
			if drops[i-1] {
				after++
				if drops[i] {
					both++
				}
			}
		}
		return float64(both) / float64(after)
	}
	if p := cond(RandomLoss{P: rate}); p > 0.05 {
		t.Errorf("i.i.d. conditional drop probability %.3f, want ≈ %.2f", p, rate)
	}
	if p := cond(GilbertElliottAt(rate, 5, 0.002, 0.402)); p < 0.1 {
		t.Errorf("Gilbert–Elliott conditional drop probability %.3f, want ≫ %.2f", p, rate)
	}
	if p := cond(BurstDropAt(rate, 4)); p < 0.5 {
		t.Errorf("BurstDrop conditional drop probability %.3f, want ≈ Continue (0.75)", p)
	}
}

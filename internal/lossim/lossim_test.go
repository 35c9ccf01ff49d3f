package lossim

import (
	"math/rand/v2"
	"testing"

	"realsum/internal/tcpip"
)

// buildStream builds n adjacent 256-byte packets of one flow with the
// given payload generator.
func buildStream(n int, opts tcpip.BuildOptions, gen func(i int) []byte) [][]byte {
	flow := tcpip.NewLoopbackFlow(opts)
	out := make([][]byte, n)
	for i := range out {
		out[i] = flow.NextPacket(nil, gen(i))
	}
	return out
}

func zeroHeavy(rng *rand.Rand) func(int) []byte {
	return func(int) []byte {
		p := make([]byte, 256)
		for i := 0; i+2 <= len(p); i += 32 {
			p[i+1] = 1
		}
		if rng != nil {
			p[rng.IntN(len(p))] = byte(rng.Uint32())
		}
		return p
	}
}

func TestNoLossDeliversEverything(t *testing.T) {
	pkts := buildStream(50, tcpip.BuildOptions{}, zeroHeavy(rand.New(rand.NewPCG(1, 1))))
	st := Run(pkts, RandomLoss{P: 0}, tcpip.BuildOptions{}, 1)
	if st.Intact != 50 || st.Undetected != 0 || st.CleanLost != 0 || st.CellsDropped != 0 {
		t.Errorf("lossless run: %+v", st)
	}
}

func TestTotalLossDeliversNothing(t *testing.T) {
	pkts := buildStream(20, tcpip.BuildOptions{}, zeroHeavy(nil))
	st := Run(pkts, RandomLoss{P: 1}, tcpip.BuildOptions{}, 1)
	if st.Intact+st.Undetected != 0 || st.CleanLost != 20 {
		t.Errorf("total loss: %+v", st)
	}
	if st.CellsDropped != st.CellsSent {
		t.Errorf("dropped %d of %d", st.CellsDropped, st.CellsSent)
	}
}

func TestRandomLossProducesDetectedDamage(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	pkts := buildStream(400, tcpip.BuildOptions{}, zeroHeavy(rng))
	st := Run(pkts, RandomLoss{P: 0.05}, tcpip.BuildOptions{}, 7)
	detected := st.DetectedFraming + st.DetectedCRC + st.DetectedHeader + st.DetectedChecksum
	if detected == 0 {
		t.Error("5% cell loss should produce detectable damage")
	}
	if st.Intact == 0 {
		t.Error("most packets should still arrive intact")
	}
	// The CRC-32 backstop makes end-to-end undetected corruption
	// essentially impossible at this sample size.
	if st.Undetected != 0 {
		t.Errorf("undetected corruption with CRC on: %d", st.Undetected)
	}
}

func TestPPDConvertsSplicesToLengthErrors(t *testing.T) {
	// §7: with PPD a trailer is only delivered when all preceding cells
	// of its packet were delivered, so candidate PDUs either reassemble
	// exactly or carry stranded prefix cells that fail the length check
	// — the CRC is never consulted.
	rng := rand.New(rand.NewPCG(3, 3))
	pkts := buildStream(400, tcpip.BuildOptions{}, zeroHeavy(rng))
	st := Run(pkts, &PPD{P: 0.05}, tcpip.BuildOptions{}, 8)
	if st.DetectedCRC != 0 {
		t.Errorf("PPD should leave nothing for the CRC to catch, got %d", st.DetectedCRC)
	}
	if st.DetectedFraming == 0 {
		t.Error("PPD should produce framing-detected partial packets")
	}
	if st.Undetected != 0 {
		t.Errorf("undetected corruption under PPD: %d", st.Undetected)
	}
	if st.DetectedChecksum != 0 {
		t.Errorf("PPD should never reach the transport checksum: %d", st.DetectedChecksum)
	}
}

func TestEPDProducesOnlyCleanLoss(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	pkts := buildStream(400, tcpip.BuildOptions{}, zeroHeavy(rng))
	st := Run(pkts, &EPD{PacketP: 0.2}, tcpip.BuildOptions{}, 9)
	detected := st.DetectedFraming + st.DetectedCRC + st.DetectedHeader + st.DetectedChecksum
	if detected != 0 {
		t.Errorf("EPD should never deliver damaged PDUs, got %d detections", detected)
	}
	if st.Undetected != 0 {
		t.Errorf("EPD undetected corruption: %d", st.Undetected)
	}
	if st.CleanLost == 0 || st.Intact == 0 {
		t.Errorf("EPD at 20%% should both lose and deliver packets: %+v", st)
	}
	if st.Intact+st.CleanLost != st.PacketsSent {
		t.Errorf("EPD accounting: %+v", st)
	}
}

func TestSplicesFormWithoutCRC(t *testing.T) {
	// With the AAL5 CRC disabled (receiver trusting the TCP checksum
	// alone, as over SLIP — §7's caution), random loss over zero-heavy
	// data eventually yields accepted-but-corrupt packets.  We can't
	// disable the CRC in the receiver, so instead verify the precursor:
	// candidate PDUs that pass framing and headers but fail only the
	// CRC exist — exactly the splices Tables 1–3 count.
	rng := rand.New(rand.NewPCG(5, 5))
	pkts := buildStream(3000, tcpip.BuildOptions{}, zeroHeavy(rng))
	st := Run(pkts, RandomLoss{P: 0.12}, tcpip.BuildOptions{}, 10)
	if st.DetectedCRC+st.DetectedChecksum == 0 {
		t.Errorf("no splice candidates survived framing+header at 12%% loss: %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	pkts := buildStream(100, tcpip.BuildOptions{}, zeroHeavy(rand.New(rand.NewPCG(6, 6))))
	a := Run(pkts, RandomLoss{P: 0.1}, tcpip.BuildOptions{}, 42)
	b := Run(pkts, RandomLoss{P: 0.1}, tcpip.BuildOptions{}, 42)
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
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

// drive feeds n cells through a policy (fresh stream, one giant packet)
// and returns the drop pattern.
func drive(pol Policy, n int, seed uint64) []bool {
	rng := rand.New(rand.NewPCG(seed, seed))
	out := make([]bool, n)
	pol.StartStream(rng)
	pol.StartPacket(rng)
	for i := range out {
		out[i] = pol.Drop(rng, false)
	}
	return out
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
		for _, d := range drive(pol, n, 99) {
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
		drops := drive(pol, n, 7)
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

// TestCorrelatedEndToEnd runs the full receiver over both correlated
// policies: determinism, accounting, and no undetected corruption with
// the CRC on.
func TestCorrelatedEndToEnd(t *testing.T) {
	pkts := buildStream(400, tcpip.BuildOptions{}, zeroHeavy(rand.New(rand.NewPCG(8, 8))))
	for _, mk := range []func() Policy{
		func() Policy { return GilbertElliottAt(0.03, 5, 0.002, 0.402) },
		func() Policy { return BurstDropAt(0.03, 4) },
	} {
		pol := mk()
		st := Run(pkts, pol, tcpip.BuildOptions{}, 21)
		if st.CellsDropped == 0 || st.CleanLost == 0 {
			t.Errorf("%s: no losses at 3%%: %+v", pol.Name(), st)
		}
		if st.Undetected != 0 {
			t.Errorf("%s: undetected corruption with CRC on: %d", pol.Name(), st.Undetected)
		}
		if st.Intact == 0 {
			t.Errorf("%s: nothing delivered intact", pol.Name())
		}
		if again := Run(pkts, mk(), tcpip.BuildOptions{}, 21); again != st {
			t.Errorf("%s: nondeterministic: %+v vs %+v", pol.Name(), st, again)
		}
	}
}

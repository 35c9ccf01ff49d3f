// Package lossim holds the cell-loss policies of an ATM link with
// switch-side discard behaviour — the loss processes behind §7's "good
// news":
//
//   - under plain random cell loss (RandomLoss), adjacent-packet
//     splices reach the reassembler and occasionally pass every check;
//   - Partial Packet Discard (PPD: drop the rest of a damaged packet,
//     trailer included) turns almost every splice into a detectable
//     length error;
//   - Early Packet Discard (EPD: drop whole packets at the switch)
//     produces clean losses only — no splice can ever form;
//   - GilbertElliott and BurstDrop lose cells in correlated runs at a
//     matched average rate.
//
// netsim.DropChannel drives a policy over a cell train and its layered
// AAL5/TCP receiver classifies what survives.
package lossim

import "math/rand/v2"

// Policy models a cell-loss process with switch-side discard behaviour.
//
// State contract.  A policy may carry two kinds of mutable state, with
// distinct reset points the caller drives:
//
//   - Stream state lives for a whole cell stream (one netsim trial)
//     and is (re)initialised only in StartStream.  The
//     Gilbert–Elliott channel condition and the BurstDrop run latch are
//     stream state: their whole point is that losses stay correlated
//     *across* packet boundaries, exactly as a fading link doesn't
//     recover because one AAL5 PDU ended.
//   - Packet state lives for one packet and is reset in StartPacket:
//     PPD's damaged latch and EPD's whole-packet drop decision.
//
// StartPacket must never touch stream state — resetting the
// Gilbert–Elliott chain at each packet boundary would silently
// decorrelate the loss process back to (blockwise) i.i.d. and void the
// burst-vs-random contrast the correlated channels exist to measure.
// Callers invoke StartStream exactly once per stream, StartPacket at the
// first cell of every packet, then Drop once per cell.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// StartStream is called once before the first cell of a stream and
	// resets all policy state, stream state included.  Runs driven from
	// equal RNG states are therefore identical — the determinism contract
	// netsim trials rely on.
	StartStream(rng *rand.Rand)
	// StartPacket is called at the first cell of each packet and resets
	// per-packet state only.
	StartPacket(rng *rand.Rand)
	// Drop is called per cell (eop marks the packet's final cell) and
	// reports whether the link/switch drops it.
	Drop(rng *rand.Rand, eop bool) bool
}

// RandomLoss drops each cell independently with probability P —
// corruption-style loss with no switch assistance.
type RandomLoss struct {
	P float64
}

// Name implements Policy.
func (RandomLoss) Name() string { return "random" }

// StartStream implements Policy; RandomLoss is stateless.
func (RandomLoss) StartStream(*rand.Rand) {}

// StartPacket implements Policy.
func (RandomLoss) StartPacket(*rand.Rand) {}

// Drop implements Policy.
func (l RandomLoss) Drop(rng *rand.Rand, eop bool) bool {
	return rng.Float64() < l.P
}

// PPD is Partial Packet Discard, exactly as §7 describes: an
// underlying random process drops cells; once any cell of a packet is
// lost the switch drops *all* subsequent cells of that packet,
// trailer included.  A trailer is therefore only ever delivered when
// all preceding cells of its packet were delivered, and the stranded
// prefix cells of damaged packets pile onto the next delivered packet
// where the AAL5 length check flags them — the CRC is never needed.
type PPD struct {
	P       float64
	damaged bool
}

// Name implements Policy.
func (*PPD) Name() string { return "ppd" }

// StartStream implements Policy.
func (p *PPD) StartStream(*rand.Rand) { p.damaged = false }

// StartPacket implements Policy; the damaged latch is packet state.
func (p *PPD) StartPacket(*rand.Rand) { p.damaged = false }

// Drop implements Policy.
func (p *PPD) Drop(rng *rand.Rand, eop bool) bool {
	if p.damaged {
		return true
	}
	if rng.Float64() < p.P {
		p.damaged = true
		return true
	}
	return false
}

// EPD is Early Packet Discard: the switch decides at packet start
// whether to drop the entire packet (trailer included).  PacketP is the
// whole-packet drop probability.
type EPD struct {
	PacketP  float64
	dropping bool
}

// Name implements Policy.
func (*EPD) Name() string { return "epd" }

// StartStream implements Policy.
func (e *EPD) StartStream(*rand.Rand) { e.dropping = false }

// StartPacket implements Policy; the drop decision is packet state.
func (e *EPD) StartPacket(rng *rand.Rand) { e.dropping = rng.Float64() < e.PacketP }

// Drop implements Policy.
func (e *EPD) Drop(*rand.Rand, bool) bool { return e.dropping }

// GilbertElliott is the classical two-state Markov loss model: the link
// is either Good or Bad, each state drops cells at its own rate, and the
// state evolves per cell with the given transition probabilities.  The
// state is stream state — it persists across packet boundaries (see the
// Policy contract), which is what makes losses cluster: a Bad sojourn
// straddling a packet boundary damages *both* packets, the correlated
// regime where splice formation diverges from the i.i.d. prediction.
//
// Per cell, Drop first decides the cell's fate under the current state,
// then advances the chain.  The chain starts Good at StartStream.
type GilbertElliott struct {
	PGoodBad float64 // per-cell P(Good → Bad)
	PBadGood float64 // per-cell P(Bad → Good); mean Bad sojourn = 1/PBadGood cells
	DropGood float64 // per-cell drop probability in Good
	DropBad  float64 // per-cell drop probability in Bad

	bad bool
}

// Name implements Policy.
func (*GilbertElliott) Name() string { return "ge" }

// StartStream implements Policy: the chain restarts in the Good state.
func (g *GilbertElliott) StartStream(*rand.Rand) { g.bad = false }

// StartPacket implements Policy.  It deliberately does nothing: the
// channel condition is stream state and survives packet boundaries.
func (g *GilbertElliott) StartPacket(*rand.Rand) {}

// Drop implements Policy.
func (g *GilbertElliott) Drop(rng *rand.Rand, eop bool) bool {
	p := g.DropGood
	if g.bad {
		p = g.DropBad
	}
	drop := rng.Float64() < p
	if g.bad {
		if rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if rng.Float64() < g.PGoodBad {
		g.bad = true
	}
	return drop
}

// GilbertElliottAt builds a chain whose stationary average loss rate is
// exactly rate, with the given mean Bad sojourn (in cells) and per-state
// drop rates: the Bad-state occupancy πB = (rate−dropGood)/(dropBad−dropGood)
// is solved for, then PGoodBad = PBadGood·πB/(1−πB).  Requires
// dropGood ≤ rate < dropBad and meanBadRun ≥ 1, so channels can be
// matched to an i.i.d. baseline at identical average severity.
func GilbertElliottAt(rate, meanBadRun, dropGood, dropBad float64) *GilbertElliott {
	if !(dropGood <= rate && rate < dropBad) || meanBadRun < 1 {
		panic("lossim: GilbertElliottAt needs dropGood <= rate < dropBad and meanBadRun >= 1")
	}
	pBadGood := 1 / meanBadRun
	piB := (rate - dropGood) / (dropBad - dropGood)
	return &GilbertElliott{
		PGoodBad: pBadGood * piB / (1 - piB),
		PBadGood: pBadGood,
		DropGood: dropGood,
		DropBad:  dropBad,
	}
}

// BurstDrop loses whole runs of consecutive cells: a run begins at any
// cell with probability Start and, once begun, claims each next cell
// with probability Continue — geometric run lengths with mean
// 1/(1−Continue).  The run latch is stream state: a run crossing a
// packet boundary takes the tail of one packet and the head of the
// next, the exact loss pattern that strands prefix cells onto a later
// trailer.
type BurstDrop struct {
	Start    float64 // per-cell probability a new drop run begins
	Continue float64 // probability an active run extends to the next cell

	inRun bool
}

// Name implements Policy.
func (*BurstDrop) Name() string { return "burstdrop" }

// StartStream implements Policy: no run is active.
func (b *BurstDrop) StartStream(*rand.Rand) { b.inRun = false }

// StartPacket implements Policy.  It deliberately does nothing: an
// active drop run is stream state and survives packet boundaries.
func (b *BurstDrop) StartPacket(*rand.Rand) {}

// Drop implements Policy.
func (b *BurstDrop) Drop(rng *rand.Rand, eop bool) bool {
	if b.inRun || rng.Float64() < b.Start {
		b.inRun = rng.Float64() < b.Continue
		return true
	}
	return false
}

// BurstDropAt builds a run-loss process whose stationary average loss
// rate is exactly rate with the given mean run length (≥ 1 cell) —
// inverting the stationary drop rate d = s/(1 − r + r·s) of Start = s
// and Continue = r for s at r = 1 − 1/meanRun.
func BurstDropAt(rate, meanRun float64) *BurstDrop {
	if rate < 0 || rate >= 1 || meanRun < 1 {
		panic("lossim: BurstDropAt needs 0 <= rate < 1 and meanRun >= 1")
	}
	r := 1 - 1/meanRun
	return &BurstDrop{Start: rate * (1 - r) / (1 - rate*r), Continue: r}
}

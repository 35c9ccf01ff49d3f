package netsim

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"
)

// deadChannel delivers nothing — the terminator case: every lane must
// exhaust at the retry cap instead of looping forever.
type deadChannel struct{}

func (deadChannel) Name() string { return "dead" }
func (deadChannel) Transmit(_ *rand.Rand, s *Stream) {
	s.Hdr, s.Origin, s.Body = s.Hdr[:0], s.Origin[:0], s.Body[:0]
}

// TestRetransWorkersDeterministic extends the byte-identity oracle over
// the retransmission loop: with Retrans on, the report — retrans tables,
// residual contrast and retrans[...] pin lines included — must be
// byte-identical at workers 1, 2 and 8, because every retry's fault
// pattern derives from RetrySeed(trialSeed, packet, attempt) and never
// from scheduling.
func TestRetransWorkersDeterministic(t *testing.T) {
	fs := sliceWalker{files: [][]byte{zeroHeavy(6000), varied(5000), varied(900)}}
	cfg := Config{Trials: 3, Seed: 21, Retrans: true}
	var reports []string
	workerCounts := []int{1, 2, 8}
	for _, workers := range workerCounts {
		cfg.Workers = workers
		tally, err := Run(context.Background(), fs, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		reports = append(reports, tally.Report())
	}
	for i := 1; i < len(reports); i++ {
		if reports[0] != reports[i] {
			t.Errorf("retrans report differs between workers=%d and workers=%d",
				workerCounts[0], workerCounts[i])
		}
	}
	if !strings.Contains(reports[0], "retransmission loop (retry cap 8)") {
		t.Error("retrans report missing the retransmission tables")
	}
	if !strings.Contains(reports[0], "residual error vs miss rate") {
		t.Error("retrans report missing the residual contrast section")
	}
	if !strings.Contains(reports[0], "retrans[tcp/drop]") {
		t.Error("retrans report missing the retrans pin lines")
	}
}

// TestRetransZeroAllocTrial guards the retry hot path: after a warm-up
// file has sized the lane table and retry buffers, repeated trials with
// the retransmission loop enabled must not allocate (ModeTCP).
func TestRetransZeroAllocTrial(t *testing.T) {
	w := newWorker(Config{Trials: 2, Seed: 9, Retrans: true})
	data := varied(8192)
	w.file(0, data) // warm-up: sizes every reusable buffer incl. retry lanes
	for c := range w.chans {
		c := c
		allocs := testing.AllocsPerRun(20, func() {
			w.trial(0, c, 0)
		})
		if allocs != 0 {
			t.Errorf("channel %s: %v allocs per retrans trial, want 0", w.tally.Channels[c].Name, allocs)
		}
	}
}

// TestRetransLosslessOracle: a channel that never damages anything
// triggers no retries, so every lane's retrans tally degenerates to the
// open-loop counts — one transmission per packet, every packet accepted
// intact, zero residual, goodput equal to the oracle's.
func TestRetransLosslessOracle(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(5000), zeroHeavy(3000)}}
	cfg := Config{
		Trials:   3,
		Seed:     5,
		Retrans:  true,
		Channels: []ChannelSpec{{Name: "nop", New: func() Channel { return nopChannel{} }}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &tally.Channels[0]
	if c.Corrupted != 0 || c.Lost != 0 {
		t.Fatalf("lossless channel corrupted %d / lost %d; oracle is vacuous", c.Corrupted, c.Lost)
	}
	for pi := range c.Placements {
		p := &c.Placements[pi]
		check := func(name string, r RetransTally) {
			if r.Accepted != c.PacketsSent || r.Exhausted != 0 {
				t.Errorf("%s/%s: accepted %d exhausted %d, want %d/0",
					p.Name, name, r.Accepted, r.Exhausted, c.PacketsSent)
			}
			if r.Transmissions != c.PacketsSent {
				t.Errorf("%s/%s: %d transmissions, want one per packet (%d)",
					p.Name, name, r.Transmissions, c.PacketsSent)
			}
			if r.TxBytes != c.Bytes {
				t.Errorf("%s/%s: TxBytes %d != sent bytes %d", p.Name, name, r.TxBytes, c.Bytes)
			}
			if r.AcceptedCorrupt != 0 || r.ResidualBytes != 0 {
				t.Errorf("%s/%s: residual %d bytes over %d corrupt accepts on a lossless channel",
					p.Name, name, r.ResidualBytes, r.AcceptedCorrupt)
			}
			if ov, ok := r.OverheadVs(p.Oracle); !ok || ov != 0 {
				t.Errorf("%s/%s: overhead vs oracle = %v (ok=%v), want exactly 0", p.Name, name, ov, ok)
			}
		}
		for a := range p.Algos {
			check(p.Algos[a].Name, p.Retrans[a])
		}
		check("oracle", p.Oracle)
	}
}

// TestRetransDeadChannel: a channel that delivers nothing can never
// satisfy any lane, so the retry cap is the only terminator — every
// lane exhausts after cap+1 transmissions per packet and delivers
// nothing.
func TestRetransDeadChannel(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(2000)}}
	cfg := Config{
		Trials:     2,
		Seed:       6,
		Retrans:    true,
		MaxRetries: 3,
		Channels:   []ChannelSpec{{Name: "dead", New: func() Channel { return deadChannel{} }}},
	}
	tally, err := Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &tally.Channels[0]
	if c.Lost != c.PacketsSent {
		t.Fatalf("dead channel lost %d of %d packets", c.Lost, c.PacketsSent)
	}
	wantTx := uint64(cfg.MaxRetries+1) * c.PacketsSent
	for pi := range c.Placements {
		p := &c.Placements[pi]
		check := func(name string, r RetransTally) {
			if r.Accepted != 0 || r.Exhausted != c.PacketsSent {
				t.Errorf("%s/%s: accepted %d exhausted %d, want 0/%d",
					p.Name, name, r.Accepted, r.Exhausted, c.PacketsSent)
			}
			if r.Transmissions != wantTx {
				t.Errorf("%s/%s: %d transmissions, want (cap+1)×packets = %d",
					p.Name, name, r.Transmissions, wantTx)
			}
			if r.DeliveredBytes != 0 {
				t.Errorf("%s/%s: delivered %d bytes on a dead channel", p.Name, name, r.DeliveredBytes)
			}
			if _, ok := r.MeanTx(); ok {
				t.Errorf("%s/%s: MeanTx ok with zero deliveries", p.Name, name)
			}
		}
		for a := range p.Algos {
			check(p.Algos[a].Name, p.Retrans[a])
		}
		check("oracle", p.Oracle)
	}
}

// TestRetransConservation pins the closed-loop conservation laws over
// the full default battery: every packet is accepted or exhausted by
// every lane, residual bytes imply corrupt accepts, the oracle never
// accepts corruption, and no lane beats the oracle's acceptance count
// (the oracle accepts at the first intact delivery — the earliest any
// honest protocol could stop).
func TestRetransConservation(t *testing.T) {
	w := sliceWalker{files: [][]byte{zeroHeavy(6000), varied(4000)}}
	tally, err := Run(context.Background(), w, Config{Trials: 3, Seed: 11, Retrans: true})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range tally.Channels {
		c := &tally.Channels[ci]
		for pi := range c.Placements {
			p := &c.Placements[pi]
			check := func(name string, r RetransTally) {
				if r.Accepted+r.Exhausted != c.PacketsSent {
					t.Errorf("%s/%s/%s: accepted %d + exhausted %d != sent %d",
						c.Name, p.Name, name, r.Accepted, r.Exhausted, c.PacketsSent)
				}
				if r.ResidualBytes > 0 && r.AcceptedCorrupt == 0 {
					t.Errorf("%s/%s/%s: residual %d bytes with zero corrupt accepts",
						c.Name, p.Name, name, r.ResidualBytes)
				}
				if r.Transmissions < c.PacketsSent {
					t.Errorf("%s/%s/%s: %d transmissions < %d packets",
						c.Name, p.Name, name, r.Transmissions, c.PacketsSent)
				}
			}
			for a := range p.Algos {
				check(p.Algos[a].Name, p.Retrans[a])
			}
			check("oracle", p.Oracle)
			if p.Oracle.AcceptedCorrupt != 0 || p.Oracle.ResidualBytes != 0 {
				t.Errorf("%s/%s: oracle accepted %d corrupt deliveries (%d residual bytes)",
					c.Name, p.Name, p.Oracle.AcceptedCorrupt, p.Oracle.ResidualBytes)
			}
		}
	}
}

// TestRetrySeedDistinct: the retry sub-stream must not collide with the
// trial-seed chain or with itself across (packet, attempt).
func TestRetrySeedDistinct(t *testing.T) {
	seen := map[uint64]string{}
	add := func(key string, s uint64) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s and %s both derive %#x", prev, key, s)
		}
		seen[s] = key
	}
	trial := TrialSeed(7, 0, 0, 0)
	add("trial(7,0,0,0)", trial)
	add("trial(7,0,0,1)", TrialSeed(7, 0, 0, 1))
	for p := 0; p < 8; p++ {
		for a := 1; a <= 8; a++ {
			add("retry", RetrySeed(trial, p, a))
		}
	}
}

// TestRetransDisabledUntouched: with Retrans off, no lane state is
// shaped and the report carries no retrans section — the default-path
// regression guard.
func TestRetransDisabledUntouched(t *testing.T) {
	w := sliceWalker{files: [][]byte{varied(3000)}}
	tally, err := Run(context.Background(), w, Config{Trials: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Retrans {
		t.Error("Retrans set on a default run")
	}
	for ci := range tally.Channels {
		for pi := range tally.Channels[ci].Placements {
			p := &tally.Channels[ci].Placements[pi]
			if p.Retrans != nil || p.Oracle != (RetransTally{}) {
				t.Errorf("%s/%s: retrans lanes shaped without Config.Retrans",
					tally.Channels[ci].Name, p.Name)
			}
		}
	}
	if r := tally.Report(); strings.Contains(r, "retransmission loop") || strings.Contains(r, "retrans[") {
		t.Error("default report renders retrans sections")
	}
}

package experiments

import (
	"fmt"
	"math"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/ipfrag"
	"realsum/internal/lossim"
	"realsum/internal/netsim"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/tcpip"
)

// The experiments in this file go beyond the paper's evaluation along
// the directions its §7 sketches: the end-to-end consequence of switch
// discard policies, and how the checksum generation that followed
// (Adler-32) fares on the same data.

// EndToEnd transmits a zero-heavy corpus through three loss policies
// at equal underlying severity on netsim's layered AAL5/TCP receiver
// and returns one channel tally per policy — §7's argument that Early
// Packet Discard removes the splice threat entirely, executed.
func EndToEnd(cfg Config) []netsim.ChannelTally {
	p := corpus.SICSOpt().Scale(cfg.scale() * 0.3)
	p.Seed ^= cfg.Seed

	const cellLoss = 0.03
	// A 256-byte packet spans 7 cells; EPD's whole-packet probability
	// matching the same per-cell process is 1−(1−p)^7.
	pktLoss := 1 - math.Pow(1-cellLoss, 7)
	policy := func(name string, pol func() lossim.Policy) netsim.ChannelSpec {
		return netsim.ChannelSpec{Name: name, New: func() netsim.Channel {
			return &netsim.DropChannel{Policy: pol()}
		}}
	}
	tally, err := netsim.Run(cfg.ctx(), p.Build(), netsim.Config{
		Trials: 1,
		Seed:   0xE2E ^ cfg.Seed,
		Channels: []netsim.ChannelSpec{
			policy("random", func() lossim.Policy { return lossim.RandomLoss{P: cellLoss} }),
			policy("ppd", func() lossim.Policy { return &lossim.PPD{P: cellLoss} }),
			policy("epd", func() lossim.Policy { return &lossim.EPD{PacketP: pktLoss} }),
		},
		Algorithms: []algo.Algorithm{algo.MustLookup("tcp")},
		Placements: []netsim.Placement{netsim.PlaceE2E},
		Workers:    cfg.Workers,
		Progress:   cfg.Progress,
	})
	if err != nil {
		panic(err)
	}
	return tally.Channels
}

// EndToEndReport renders the policy comparison: each channel's packets
// sent, the candidates its receiver accepted intact, the packets whose
// trailer never arrived, and the candidates each check rejected first.
func EndToEndReport(rows []netsim.ChannelTally) string {
	t := report.Table{
		Title: "§7 extension: receiver outcomes under cell-loss policies (3% cell loss)",
		Headers: []string{"policy", "sent", "intact", "clean-lost",
			"framing", "CRC", "header", "checksum", "undetected"},
	}
	for _, r := range rows {
		p := r.Pipeline
		t.AddRow(r.Name,
			report.Count(r.PacketsSent), report.Count(p.Accepted), report.Count(r.Lost),
			report.Count(p.Framing), report.Count(p.CRC),
			report.Count(p.Header), report.Count(p.Checksum),
			report.Count(p.AcceptedCorrupt))
	}
	return t.Render()
}

// AdlerRow compares one algorithm's cell-level self-collision
// probability over the Stanford corpus.
type AdlerRow struct {
	Algorithm string
	Bits      int
	Collision float64
	Uniform   float64
}

// adlerAlgos maps the comparison's display labels onto registry names,
// in table order.
var adlerAlgos = []struct{ Label, Algo string }{
	{"IP/TCP", "tcp"},
	{"Fletcher-255", "f255"},
	{"Fletcher-256", "f256"},
	{"Adler-32", "adler32"},
	{"CRC-32", "crc32"},
}

// AdlerComparison extends Figure 3's distribution study with the
// 32-bit generation: Adler-32 and CRC-32 over the same 48-byte cells
// as the 16-bit sums.  The 16-bit checks collide ~10× above their
// uniform floor; the 32-bit checks have so much head-room that real
// data collisions come almost entirely from identical cells.
//
// All five algorithms come from the algo registry, and the cell scan
// runs through the sharded collection engine with one sparse census per
// algorithm per worker.
func AdlerComparison(cfg Config) []AdlerRow {
	fs := cfg.build(corpus.StanfordU1())
	algos := make([]algo.Algorithm, len(adlerAlgos))
	for i, s := range adlerAlgos {
		algos[i] = algo.MustLookup(s.Algo)
	}

	censuses, err := sim.Collect(cfg.ctx(), fs, cfg.collectOptions(),
		func() []*dist.Sparse {
			out := make([]*dist.Sparse, len(algos))
			for i := range out {
				out[i] = dist.NewSparse()
			}
			return out
		},
		func(shard []*dist.Sparse, _ int, data []byte) {
			for off := 0; off+dist.CellSize <= len(data); off += dist.CellSize {
				cell := data[off : off+dist.CellSize]
				for i, a := range algos {
					shard[i].Add(a.Sum(cell))
				}
			}
		},
		func(dst, src []*dist.Sparse) {
			for i := range dst {
				dst[i].Merge(src[i])
			}
		},
	)
	if err != nil {
		panic(err)
	}

	rows := make([]AdlerRow, len(algos))
	for i, a := range algos {
		rows[i] = AdlerRow{
			Algorithm: adlerAlgos[i].Label,
			Bits:      a.Width(),
			Collision: censuses[i].CollisionProbability(),
			Uniform:   a.UniformP(),
		}
	}
	return rows
}

// FragSwapRow compares one checksum's miss rate under the same-offset
// fragment-substitution model against its AAL5-splice miss rate.
type FragSwapRow struct {
	Algorithm    string
	FragMissRate float64 // same-offset fragment swaps (ipfrag model)
	FragOK       bool    // false when no swap corrupted a reassembly: FragMissRate is unknown
	AAL5MissRate float64 // cell splices on the same corpus (Table 8 model)
	AAL5OK       bool    // false when no splice remained: AAL5MissRate is unknown
}

// FragSwap runs the abstract's fragmentation-and-reassembly error
// model: fragments of adjacent packets substituted at equal offsets
// (an IP-ID collision in a buggy reassembler).  Because substituted
// data keeps its own offset, Fletcher loses the *inter-fragment*
// colouring that drives its AAL5-splice advantage — though it keeps
// intra-fragment positional sensitivity (two fragments with equal byte
// sums still differ in the weighted term unless their bytes agree
// position-wise), so it does not fully degenerate to the TCP
// condition.  The reproducible headline is the TCP one: same-offset
// swaps on real data are missed at rates far above uniform, just like
// cell splices.
func FragSwap(cfg Config) []FragSwapRow {
	p := corpus.SICSOpt().Scale(cfg.scale() * 0.5)
	p.Seed ^= cfg.Seed
	var out []FragSwapRow
	for _, alg := range []tcpip.ChecksumAlg{tcpip.AlgTCP, tcpip.AlgFletcher256} {
		opts := tcpip.BuildOptions{Alg: alg}

		// Fragment-swap model: packetize at 512 bytes, fragment at a
		// 96-byte MTU, swap same-shape fragments.
		var frag ipfrag.SwapResult
		flow := tcpip.NewLoopbackFlow(opts)
		var prev []byte
		p.Build().Walk(func(path string, data []byte) error {
			prev = nil
			for off := 0; off < len(data); off += 512 {
				end := off + 512
				if end > len(data) {
					end = len(data)
				}
				pkt := flow.NextPacket(nil, data[off:end])
				if prev != nil {
					r, err := ipfrag.SwapPair(prev, pkt, 96, opts)
					if err != nil {
						return err
					}
					frag.Add(r)
				}
				prev = pkt
			}
			return nil
		})

		// AAL5 splice model on the same corpus for contrast.
		res, err := sim.Run(cfg.ctx(), p.Build(), p.Name, cfg.simOptions(sim.Options{Build: opts}))
		if err != nil {
			panic(err)
		}
		fragRate, fragOK := frag.MissRate()
		aal5, ok := res.MissRate(res.MissedByChecksum)
		out = append(out, FragSwapRow{
			Algorithm:    alg.String(),
			FragMissRate: fragRate,
			FragOK:       fragOK,
			AAL5MissRate: aal5,
			AAL5OK:       ok,
		})
	}
	return out
}

// FragSwapReport renders the comparison.
func FragSwapReport(rows []FragSwapRow) string {
	t := report.Table{
		Title:   "Abstract's frag-reassembly model: same-offset swaps vs AAL5 splices (sics:/opt)",
		Headers: []string{"algorithm", "frag-swap miss", "AAL5-splice miss"},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm, report.RatePercent(r.FragMissRate, r.FragOK), report.RatePercent(r.AAL5MissRate, r.AAL5OK))
	}
	return t.Render() + "\nsame-offset substitution removes the inter-fragment colouring that cell\n" +
		"splices exhibit; the TCP checksum misses both models at rates far above\n" +
		"the uniform 0.00153%.\n"
}

// AdlerReport renders the comparison.
func AdlerReport(rows []AdlerRow) string {
	t := report.Table{
		Title:   "Extension: cell-level collision probability, 16-bit vs 32-bit checks (smeg:/u1)",
		Headers: []string{"algorithm", "bits", "measured collision", "uniform floor"},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm, fmt.Sprintf("%d", r.Bits),
			report.Percent(r.Collision), report.Percent(r.Uniform))
	}
	return t.Render()
}

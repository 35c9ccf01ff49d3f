// trailer-vs-header measures the paper's §5.3 claim on a pathological
// corpus: moving the TCP checksum from the header to a trailer makes it
// dramatically better at catching packet splices, because the checksum
// stops sharing fate with the header it covers and every splice then
// mixes three differently-coloured distributions.
package main

import (
	"context"
	"fmt"

	"realsum/internal/corpus"
	"realsum/internal/report"
	"realsum/internal/sim"
	"realsum/internal/stats"
	"realsum/internal/tcpip"
)

func main() {
	// gmon.out-style profiles: mostly zero words with repeated small
	// counters — the worst realistic case for the header checksum.
	profile := corpus.PathologicalGmon()

	run := func(placement tcpip.Placement) sim.Result {
		res, err := sim.Run(context.Background(), profile.Build(), profile.Name,
			sim.Options{Build: tcpip.BuildOptions{Placement: placement}})
		if err != nil {
			panic(err)
		}
		return res
	}
	hdr := run(tcpip.PlacementHeader)
	trl := run(tcpip.PlacementTrailer)

	fmt.Printf("corpus: %s (%d files, %s packets)\n\n", profile.Name, hdr.Files, report.Count(hdr.Packets))
	t := report.Table{
		Headers: []string{"placement", "remaining", "missed", "rate", "identical rejected"},
	}
	for _, e := range []struct {
		name string
		res  sim.Result
	}{{"header", hdr}, {"trailer", trl}} {
		t.AddRow(e.name,
			report.Count(e.res.Remaining),
			report.Count(e.res.MissedByChecksum),
			report.RatePercent(e.res.MissRate(e.res.MissedByChecksum)),
			report.Count(e.res.IdenticalFailedChecksum))
	}
	fmt.Print(t.Render())

	// With no remaining splices a rate is unknown; its 0 then prints
	// neither comparison line below.
	hr, _ := hdr.MissRate(hdr.MissedByChecksum)
	tr, _ := trl.MissRate(trl.MissedByChecksum)
	fmt.Printf("\nuniform-data expectation: %s\n", report.Percent(stats.UniformMissRate(16)))
	if tr > 0 {
		fmt.Printf("trailer improvement: %.1fx fewer misses\n", hr/tr)
	} else if hr > 0 {
		fmt.Printf("trailer improvement: header missed %s, trailer missed none\n", report.Count(hdr.MissedByChecksum))
	}
	fmt.Println("\nnote the trade: trailer checksums reject some splices whose data was")
	fmt.Println("identical to an original packet — a possible extra retransmission, never")
	fmt.Println("corruption (§5.3, Table 10).")
}

package experiments

import (
	"strings"
	"testing"

	"realsum/internal/netsim"
)

func TestEndToEndPolicies(t *testing.T) {
	rows := EndToEnd(Config{Scale: 0.3})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]netsim.ChannelTally{}
	for _, r := range rows {
		byName[r.Name] = r
		p := r.Pipeline
		if r.PacketsSent == 0 {
			t.Fatalf("%s: nothing sent", r.Name)
		}
		if p.AcceptedCorrupt != 0 {
			t.Errorf("%s: undetected corruption with CRC backstop: %d", r.Name, p.AcceptedCorrupt)
		}
		if got := p.Accepted + p.AcceptedCorrupt + p.Framing + p.CRC + p.Header + p.Checksum + r.Lost; got != r.PacketsSent {
			t.Errorf("%s: outcomes sum to %d, sent %d", r.Name, got, r.PacketsSent)
		}
	}
	rnd, ppd, epd := byName["random"].Pipeline, byName["ppd"].Pipeline, byName["epd"].Pipeline

	// Random loss leaves damage for CRC/checksum layers; PPD moves it
	// to framing; EPD leaves no damage at all.
	if rnd.Framing == 0 {
		t.Error("random loss should produce framing-detected damage")
	}
	if ppd.CRC != 0 {
		t.Errorf("PPD should leave nothing for the CRC: %d", ppd.CRC)
	}
	if epd.Framing+epd.CRC+epd.Header+epd.Checksum != 0 {
		t.Error("EPD should deliver only intact packets")
	}
	if byName["epd"].Lost == 0 {
		t.Error("EPD at matched severity should lose whole packets")
	}
	if !strings.Contains(EndToEndReport(rows), "epd") {
		t.Error("report malformed")
	}
}

// TestEndToEndWorkersDeterministic holds the end-to-end policy table to
// the worker-count contract: the report is byte-identical at 1 and 4
// workers.
func TestEndToEndWorkersDeterministic(t *testing.T) {
	w1 := EndToEndReport(EndToEnd(Config{Scale: 0.1, Workers: 1}))
	w4 := EndToEndReport(EndToEnd(Config{Scale: 0.1, Workers: 4}))
	if w1 != w4 {
		t.Errorf("workers 1 vs 4 differ:\n%s\nvs\n%s", w1, w4)
	}
}

func TestDataCensusShape(t *testing.T) {
	rows := DataCensus(Config{Scale: 0.1})
	byName := map[string]CensusRow{}
	for _, r := range rows {
		byName[r.Type.String()] = r
		if r.Bytes == 0 {
			t.Fatalf("%v: empty sample", r.Type)
		}
		if r.EntropyBpB < 0 || r.EntropyBpB > 8.0001 {
			t.Fatalf("%v: entropy %v out of range", r.Type, r.EntropyBpB)
		}
	}
	// §1's claims, quantified: text skews to letters with mid entropy;
	// binaries and profiles are zero-heavy; compressed/random are
	// near 8 bits/byte; PBM is essentially all 0x00/0xFF.
	if e := byName["text"].EntropyBpB; e < 3.5 || e > 5.5 {
		t.Errorf("text entropy %v, want ≈4.5", e)
	}
	if z := byName["gmon"].ZeroFrac; z < 0.9 {
		t.Errorf("gmon zero fraction %v", z)
	}
	if z := byName["exec"].ZeroFrac; z < 0.15 {
		t.Errorf("exec zero fraction %v", z)
	}
	if e := byName["random"].EntropyBpB; e < 7.9 {
		t.Errorf("random entropy %v", e)
	}
	if e := byName["compressed"].EntropyBpB; e < 7.5 {
		t.Errorf("compressed entropy %v", e)
	}
	if bw := byName["pbm"].ZeroFrac + byName["pbm"].FFFrac; bw < 0.98 {
		t.Errorf("pbm not black-and-white: %v", bw)
	}
	if !strings.Contains(DataCensusReport(rows), "entropy") {
		t.Error("census report malformed")
	}
}

func TestAdlerComparisonShape(t *testing.T) {
	rows := AdlerComparison(Config{Scale: 0.3})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(name string) AdlerRow {
		for _, r := range rows {
			if r.Algorithm == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return AdlerRow{}
	}
	tcp := get("IP/TCP")
	adl := get("Adler-32")
	c32 := get("CRC-32")
	// All the 16-bit checks collide well above the 32-bit ones on real
	// cells.
	if tcp.Collision <= adl.Collision {
		t.Errorf("TCP collision %.3g not above Adler-32 %.3g", tcp.Collision, adl.Collision)
	}
	// On real data even 32-bit checks collide above their uniform floor
	// (identical cells guarantee it), and Adler ≥ CRC-32 because of its
	// short-input weakness.
	if adl.Collision < c32.Collision {
		t.Errorf("Adler-32 %.3g below CRC-32 %.3g — short-input weakness missing",
			adl.Collision, c32.Collision)
	}
	if !strings.Contains(AdlerReport(rows), "Adler-32") {
		t.Error("report malformed")
	}
}

func TestLocalityOfFailure(t *testing.T) {
	d := Locality(Config{Scale: 0.4})
	if d.Result.MissedByChecksum == 0 {
		t.Skip("no misses at this scale")
	}
	if len(d.Result.WorstFiles) == 0 {
		t.Fatal("no attribution recorded")
	}
	// §5.5: failures are concentrated — the top 5 files (a few percent
	// of the corpus) should carry a large share of all misses.
	if top, _ := d.TopShare(); top < 0.3 {
		t.Errorf("top-5 files carry only %.1f%% of misses; expected sharp locality", 100*top)
	}
	if files, _ := d.FilesOfAll(); files > 0.2 {
		t.Errorf("top files are %.1f%% of the corpus; attribution degenerate", 100*files)
	}
	// Sorted descending by misses.
	w := d.Result.WorstFiles
	for i := 1; i < len(w); i++ {
		if w[i].Missed > w[i-1].Missed {
			t.Fatal("WorstFiles not sorted")
		}
	}
	if !strings.Contains(LocalityReport(d), "locality of failure") {
		t.Error("report malformed")
	}
}

func TestFragSwapColoringPrediction(t *testing.T) {
	rows := FragSwap(Config{Scale: 0.4})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var tcp, f256 FragSwapRow
	for _, r := range rows {
		switch r.Algorithm {
		case "TCP":
			tcp = r
		case "F-256":
			f256 = r
		}
	}
	if tcp.FragMissRate == 0 {
		t.Skip("no fragment-swap misses at this scale")
	}
	// On AAL5 splices Fletcher wins decisively.
	if tcp.AAL5MissRate > 0 && f256.AAL5MissRate >= tcp.AAL5MissRate {
		t.Errorf("AAL5: Fletcher %.4g not below TCP %.4g", f256.AAL5MissRate, tcp.AAL5MissRate)
	}
	// The TCP checksum misses same-offset fragment swaps far above the
	// uniform 2^-16, just as it misses cell splices — the abstract's
	// fragmentation-and-reassembly claim.
	if tcp.FragMissRate < 2.0/65536 {
		t.Errorf("TCP frag-swap miss rate %.4g shows no degradation over uniform", tcp.FragMissRate)
	}
	if !strings.Contains(FragSwapReport(rows), "frag-swap miss") {
		t.Error("report malformed")
	}
}

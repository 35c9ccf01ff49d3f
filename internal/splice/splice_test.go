package splice

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"realsum/internal/atm"
	"realsum/internal/crc"
	"realsum/internal/inet"
	"realsum/internal/tcpip"
)

// ---------------------------------------------------------------------
// Brute-force reference implementation: materialize every candidate
// splice and classify it with the reference (non-incremental) APIs.
// The fast enumerator must agree exactly.

var refCRC = crc.New(crc.CRC32)

func refEnumerate(p1, p2 []byte, cfg Config) Counts {
	cells1, err1 := atm.AppendSegment(nil, p1, 0, 32)
	cells2, err2 := atm.AppendSegment(nil, p2, 0, 32)
	if err1 != nil || err2 != nil {
		return Counts{}
	}
	var pool [][]byte
	for i := 0; i < len(cells1)-1; i++ {
		pool = append(pool, cells1[i].Payload[:])
	}
	m1 := len(cells1) - 1
	for i := 0; i < len(cells2)-1; i++ {
		pool = append(pool, cells2[i].Payload[:])
	}
	last := cells2[len(cells2)-1].Payload[:]
	n2 := len(cells2)
	need := n2 - 1

	var tr atm.Trailer
	tr, _ = atm.CheckFraming(cells2)

	counts := Counts{Pairs: 1}
	fieldOff := cfg.Opts.ChecksumOffset(len(p2))

	// Enumerate all order-preserving selections of `need` from pool.
	var sel []int
	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		if remaining == 0 {
			classify(&counts, sel, pool, m1, last, p1, p2, n2, tr, fieldOff, cfg)
			return
		}
		for i := start; i <= len(pool)-remaining; i++ {
			sel = append(sel, i)
			rec(i+1, remaining-1)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0, need)
	return counts
}

func classify(counts *Counts, sel []int, pool [][]byte, m1 int, last, p1, p2 []byte,
	n2 int, tr atm.Trailer, fieldOff int, cfg Config) {

	fromP1 := 0
	for _, i := range sel {
		if i < m1 {
			fromP1++
		}
	}
	if fromP1 == 0 {
		return // identity
	}
	counts.Total++

	// Materialize PDU and SDU.
	var pdu []byte
	for _, i := range sel {
		pdu = append(pdu, pool[i]...)
	}
	pdu = append(pdu, last...)
	sdu := pdu[:len(p2)]

	// Header battery via the reference validators.
	if tcpip.ValidateHeaders(sdu, cfg.Opts) != nil {
		counts.CaughtByHeader++
		return
	}

	ckOK := tcpip.VerifyPacket(sdu, cfg.Opts)

	// Identical to an original packet, checksum field excluded.
	eqExceptField := func(orig []byte) bool {
		if len(orig) != len(sdu) {
			return false
		}
		for i := range orig {
			if i == fieldOff || i == fieldOff+1 {
				continue
			}
			if orig[i] != sdu[i] {
				return false
			}
		}
		return true
	}
	if eqExceptField(p2) || eqExceptField(p1) {
		counts.Identical++
		if ckOK {
			counts.IdenticalPassedChecksum++
		} else {
			counts.IdenticalFailedChecksum++
		}
		return
	}

	counts.Remaining++
	subLen := n2 - fromP1
	if subLen >= MaxCells {
		subLen = MaxCells - 1
	}
	counts.RemainingByLen[subLen]++
	if ckOK {
		counts.MissedByChecksum++
		counts.MissedByLen[subLen]++
	}
	if cfg.CheckCRC {
		if uint32(refCRC.Checksum(pdu[:len(pdu)-4])) == tr.CRC {
			counts.MissedByCRC++
			if ckOK {
				counts.MissedByBoth++
			}
		}
	}
}

// refEqAt is the byte loop eqAt replaced: cell against orig's SDU at
// slot s, byte by byte, over offsets below the splice's SDU length l2,
// skipping the two checksum-field bytes at fieldOff.
func refEqAt(orig, cell []byte, s, l2, fieldOff int) bool {
	base := s * atm.PayloadSize
	for j := 0; j < atm.PayloadSize; j++ {
		off := base + j
		inOrig := off < len(orig)
		inSplice := off < l2
		if inOrig != inSplice {
			return false
		}
		if !inSplice {
			return true // past both SDUs: padding/trailer, irrelevant
		}
		if off == fieldOff || off == fieldOff+1 {
			continue
		}
		if orig[off] != cell[j] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------

// payloadKinds produce adversarial payload structure: zero-heavy and
// repetitive data maximize identical/missed cases so the comparison
// exercises every classification path.
func makePayload(rng *rand.Rand, n int, kind int) []byte {
	b := make([]byte, n)
	switch kind {
	case 0: // random
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
	case 1: // all zero
	case 2: // 0x00/0xFF runs
		for i := range b {
			if (i/40)%2 == 0 {
				b[i] = 0xFF
			}
		}
	case 3: // repeated 48-byte motif: many identical cells
		for i := range b {
			b[i] = byte((i % 48) * 3)
		}
	case 4: // sparse counters, gmon-like
		for i := 0; i+2 <= n; i += 32 {
			b[i+1] = 1
		}
	}
	return b
}

func allConfigs() []Config {
	var out []Config
	for _, alg := range []tcpip.ChecksumAlg{tcpip.AlgTCP, tcpip.AlgFletcher255, tcpip.AlgFletcher256} {
		for _, pl := range []tcpip.Placement{tcpip.PlacementHeader, tcpip.PlacementTrailer} {
			out = append(out, Config{Opts: tcpip.BuildOptions{Alg: alg, Placement: pl}, CheckCRC: true})
		}
	}
	out = append(out,
		Config{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP, NoInvert: true}, CheckCRC: true},
		Config{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP, ZeroIPHeader: true}, CheckCRC: true},
	)
	return out
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	for _, cfg := range allConfigs() {
		for kind := 0; kind < 5; kind++ {
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			// Two adjacent segments of one transfer, modest size so the
			// brute force stays fast: 160-byte payloads → 5 cells.
			pay1 := makePayload(rng, 160, kind)
			pay2 := makePayload(rng, 160, kind)
			p1 := flow.NextPacket(nil, pay1)
			p2 := flow.NextPacket(nil, pay2)
			got := EnumeratePair(p1, p2, cfg)
			want := refEnumerate(p1, p2, cfg)
			if got != want {
				t.Errorf("cfg %+v kind %d:\n got %+v\nwant %+v", cfg.Opts, kind, got, want)
			}
		}
	}
}

func TestEnumerateMatchesBruteForceRunts(t *testing.T) {
	// Runt geometries: tiny payloads, odd lengths, trailer-straddling
	// sizes (payload ≡ 4..11 mod 48 exercise lastLen ≤ 1).
	rng := rand.New(rand.NewPCG(7, 7))
	sizes := []int{1, 2, 5, 7, 8, 9, 10, 11, 48, 52, 53, 54, 55, 96, 100, 101, 149, 150, 151, 152, 153, 199}
	for _, cfg := range []Config{
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP, Placement: tcpip.PlacementTrailer}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256, Placement: tcpip.PlacementTrailer}, CheckCRC: true},
	} {
		for _, n1 := range sizes {
			n2 := sizes[rng.IntN(len(sizes))]
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, n1, rng.IntN(5)))
			p2 := flow.NextPacket(nil, makePayload(rng, n2, rng.IntN(5)))
			got := EnumeratePair(p1, p2, cfg)
			want := refEnumerate(p1, p2, cfg)
			if got != want {
				t.Errorf("cfg %+v n1=%d n2=%d:\n got %+v\nwant %+v", cfg.Opts, n1, n2, got, want)
			}
		}
	}
}

func TestSpliceSpaceSize(t *testing.T) {
	// §4.6: for 7-cell packets the candidate space with both endpoint
	// cells pinned is C(11,5) = 462.  Our Total counts all candidates
	// that end in packet 2's trailer cell (the first cell need not be
	// pinned) minus the identity: C(12,6) − 1... with 256-byte payloads
	// both packets have 7 cells, pool = 6+6 = 12, choose 6 = 924, minus
	// the identity = 923.
	cfg := Config{Opts: tcpip.BuildOptions{}}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, make([]byte, 256))
	p2 := flow.NextPacket(nil, make([]byte, 256))
	c := EnumeratePair(p1, p2, cfg)
	if c.Total != 923 {
		t.Errorf("Total = %d, want 923", c.Total)
	}
	// Splices keeping packet 1's header cell and passing the header
	// battery: C(11,5) = 462 of the 924 candidates have the header cell
	// first... all-zero payloads make header checks the only filter:
	// every candidate whose first cell is a data cell fails.  462
	// includes the identity-like selection (all-P2 middles after P1's
	// header? no — that has 6 P2 middles and the header: 7 choose...)
	// so just assert the passing count equals 462.
	passed := c.Total - c.CaughtByHeader
	if passed != 462 {
		t.Errorf("splices passing header checks = %d, want C(11,5) = 462", passed)
	}
}

func TestAllZeroPayloadSplices(t *testing.T) {
	// All-zero 256-byte payloads: every data cell is identical, so a
	// splice differs from an original packet only when it moves packet
	// 2's header cell into a data slot (the second-header case §5.3
	// analyzes).  With the IP header fully filled, that header cell is
	// distinguishable from a zero cell — §6.2's correction — so the
	// checksum catches every one of those Remaining splices.
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, make([]byte, 256))
	p2 := flow.NextPacket(nil, make([]byte, 256))
	c := EnumeratePair(p1, p2, cfg)
	if c.Total != c.CaughtByHeader+c.Identical+c.Remaining {
		t.Errorf("classification does not partition: %+v", c)
	}
	if c.Identical == 0 {
		t.Error("all-zero payloads must yield identical-data splices")
	}
	if c.Remaining == 0 {
		t.Error("second-header splices should be Remaining")
	}
	if c.MissedByChecksum != 0 {
		t.Errorf("filled IP headers should expose the second-header cell; missed %d", c.MissedByChecksum)
	}
	// The §6.2 ablation: with the IP header zeroed, the second header
	// cell hides among the zero cells far more easily.
	zcfg := Config{Opts: tcpip.BuildOptions{ZeroIPHeader: true}}
	zflow := tcpip.NewLoopbackFlow(zcfg.Opts)
	zp1 := zflow.NextPacket(nil, make([]byte, 256))
	zp2 := zflow.NextPacket(nil, make([]byte, 256))
	zc := EnumeratePair(zp1, zp2, zcfg)
	if zc.MissedByChecksum == 0 && zc.Identical == 0 {
		t.Error("zeroed IP headers should produce misses or identicals on zero data")
	}
}

func TestRandomPayloadsRarelyMissed(t *testing.T) {
	// Uniform payloads: the checksum should catch essentially all
	// corrupted splices (expected miss rate 2^-16 per splice).
	rng := rand.New(rand.NewPCG(1, 2))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: false}
	var c Counts
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	prev := flow.NextPacket(nil, makePayload(rng, 256, 0))
	for i := 0; i < 60; i++ {
		next := flow.NextPacket(nil, makePayload(rng, 256, 0))
		c.Add(EnumeratePair(prev, next, cfg))
		prev = next
	}
	if c.Remaining < 20000 {
		t.Fatalf("expected tens of thousands of remaining splices, got %d", c.Remaining)
	}
	// ~27k remaining; expected misses ≈ 27k/65536 < 1.  Allow a little.
	if c.MissedByChecksum > 5 {
		t.Errorf("uniform data missed %d/%d — far above 2^-16", c.MissedByChecksum, c.Remaining)
	}
}

func TestZeroHeavyPayloadsMissedOften(t *testing.T) {
	// The paper's headline: structured, zero-heavy data yields checksum
	// misses orders of magnitude above 2^-16.  gmon-like payloads give
	// many congruent-but-different cells.
	rng := rand.New(rand.NewPCG(3, 4))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: false}
	var c Counts
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	prev := flow.NextPacket(nil, makePayload(rng, 256, 4))
	for i := 0; i < 60; i++ {
		next := flow.NextPacket(nil, makePayload(rng, 256, 4))
		c.Add(EnumeratePair(prev, next, cfg))
		prev = next
	}
	if c.Remaining == 0 {
		t.Fatal("no remaining splices")
	}
	rate, _ := c.MissRate(c.MissedByChecksum)
	if rate < 100.0/65536 {
		t.Errorf("gmon-like data miss rate %.6f not >> 2^-16", rate)
	}
}

func TestTrailerBeatsHeaderOnStructuredData(t *testing.T) {
	// Table 9's shape: trailer placement catches splices the header
	// checksum misses, on locally repetitive data.
	rng := rand.New(rand.NewPCG(5, 6))
	run := func(pl tcpip.Placement) Counts {
		cfg := Config{Opts: tcpip.BuildOptions{Placement: pl}}
		var c Counts
		flow := tcpip.NewLoopbackFlow(cfg.Opts)
		prev := flow.NextPacket(nil, makePayload(rng, 256, 4))
		r2 := rand.New(rand.NewPCG(5, 6)) // same payload stream per mode
		_ = r2
		for i := 0; i < 80; i++ {
			next := flow.NextPacket(nil, makePayload(rng, 256, 4))
			c.Add(EnumeratePair(prev, next, cfg))
			prev = next
		}
		return c
	}
	rng = rand.New(rand.NewPCG(5, 6))
	hdr := run(tcpip.PlacementHeader)
	rng = rand.New(rand.NewPCG(5, 6))
	trl := run(tcpip.PlacementTrailer)
	if hdr.MissedByChecksum == 0 {
		t.Skip("header checksum missed nothing; structured payload too weak")
	}
	hr, _ := hdr.MissRate(hdr.MissedByChecksum)
	tr, _ := trl.MissRate(trl.MissedByChecksum)
	if tr >= hr {
		t.Errorf("trailer miss rate %.6g not below header %.6g", tr, hr)
	}
	if trl.IdenticalFailedChecksum == 0 {
		t.Error("trailer checksums should reject identical splices (Table 10)")
	}
	if hdr.IdenticalFailedChecksum != 0 {
		t.Error("header checksums never reject identical splices (Table 10)")
	}
}

func TestCRCMissesAreRare(t *testing.T) {
	// The CRC-32 should essentially never pass a corrupted splice.
	rng := rand.New(rand.NewPCG(9, 9))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	var c Counts
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	prev := flow.NextPacket(nil, makePayload(rng, 256, 4))
	for i := 0; i < 40; i++ {
		next := flow.NextPacket(nil, makePayload(rng, 256, 4))
		c.Add(EnumeratePair(prev, next, cfg))
		prev = next
	}
	if c.MissedByCRC != 0 {
		t.Errorf("CRC-32 missed %d of %d splices", c.MissedByCRC, c.Remaining)
	}
	if c.MissedByBoth != 0 {
		t.Errorf("MissedByBoth = %d", c.MissedByBoth)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Pairs: 1, Total: 10, Remaining: 5, MissedByChecksum: 2}
	a.RemainingByLen[1] = 3
	b := Counts{Pairs: 2, Total: 20, Remaining: 7, MissedByChecksum: 1}
	b.RemainingByLen[1] = 4
	a.Add(b)
	if a.Pairs != 3 || a.Total != 30 || a.Remaining != 12 || a.MissedByChecksum != 3 {
		t.Errorf("%+v", a)
	}
	if a.RemainingByLen[1] != 7 {
		t.Errorf("byLen = %d", a.RemainingByLen[1])
	}
}

func TestMissRate(t *testing.T) {
	c := Counts{Remaining: 200, MissedByChecksum: 3}
	if got, ok := c.MissRate(c.MissedByChecksum); got != 0.015 || !ok {
		t.Errorf("MissRate = %v, %v; want 0.015, true", got, ok)
	}
	var empty Counts
	if got, ok := empty.MissRate(5); ok {
		t.Errorf("MissRate with no remaining splices = %v, true; want ok false", got)
	}
}

func TestIncrementalSumEquivalence(t *testing.T) {
	// The §4.1 identity underlying the whole enumerator: a packet's
	// checksum is the sum of its cells' partial sums.
	rng := rand.New(rand.NewPCG(11, 11))
	data := make([]byte, 48*7)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	var sum uint16
	for off := 0; off < len(data); off += 48 {
		sum = addOnes(sum, inet.Sum(data[off:off+48]))
	}
	if whole := inet.Sum(data); !bytes.Equal([]byte{byte(sum >> 8), byte(sum)}, []byte{byte(whole >> 8), byte(whole)}) && sum != whole {
		t.Errorf("cell-sum composition: %#04x != %#04x", sum, whole)
	}
}

func addOnes(a, b uint16) uint16 {
	s := uint32(a) + uint32(b)
	return uint16(s) + uint16(s>>16)
}

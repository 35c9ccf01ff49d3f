package splice

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"realsum/internal/atm"
	"realsum/internal/corpus"
	"realsum/internal/fletcher"
	"realsum/internal/tcpip"
)

// fullMatrixConfigs returns the complete BuildOptions cross-product:
// every algorithm × placement × inversion × IP-header fill, all with
// the CRC check enabled.
func fullMatrixConfigs() []Config {
	var out []Config
	for _, alg := range []tcpip.ChecksumAlg{tcpip.AlgTCP, tcpip.AlgFletcher255, tcpip.AlgFletcher256} {
		for _, pl := range []tcpip.Placement{tcpip.PlacementHeader, tcpip.PlacementTrailer} {
			for _, noInv := range []bool{false, true} {
				for _, zeroIP := range []bool{false, true} {
					out = append(out, Config{
						Opts: tcpip.BuildOptions{
							Alg: alg, Placement: pl,
							NoInvert: noInv, ZeroIPHeader: zeroIP,
						},
						CheckCRC: true,
					})
				}
			}
		}
	}
	return out
}

// TestDifferentialFullMatrix drives ONE reused Enumerator through the
// full 24-configuration options matrix and all payload kinds, asserting
// bit-identical Counts against the retained naive reference enumerator
// (refEnumerate materializes every splice and classifies it with the
// reference verifiers).  Reusing a single enumerator across differing
// configs and geometries is the point: stale per-pair state from a
// previous (algorithm, placement, CRC) combination must never leak.
func TestDifferentialFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(1995, 95))
	e := NewEnumerator()
	cfgs := fullMatrixConfigs()
	// Interleave a CheckCRC=false variant so the contribution tables go
	// stale between CRC-checked pairs.
	for ci, cfg := range cfgs {
		noCRC := cfg
		noCRC.CheckCRC = false
		for kind := 0; kind < 5; kind++ {
			// Alternate geometries, runts included, so buffers shrink and
			// grow across calls.
			sizes := [2]int{160, 160}
			switch kind {
			case 2:
				sizes = [2]int{7, 150}
			case 4:
				sizes = [2]int{97, 53}
			}
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, sizes[0], kind))
			p2 := flow.NextPacket(nil, makePayload(rng, sizes[1], kind))
			got := e.Pair(p1, p2, cfg)
			want := refEnumerate(p1, p2, cfg)
			if got != want {
				t.Errorf("cfg[%d] %+v kind %d:\n got %+v\nwant %+v", ci, cfg.Opts, kind, got, want)
			}
			gotNo := e.Pair(p1, p2, noCRC)
			wantNo := refEnumerate(p1, p2, noCRC)
			if gotNo != wantNo {
				t.Errorf("cfg[%d] %+v (no CRC) kind %d:\n got %+v\nwant %+v", ci, cfg.Opts, kind, gotNo, wantNo)
			}
		}
	}
}

// TestPrecomputeSkipsOnlyUnreachable checks that the per-pair
// precompute fills every table entry the walk reads.  precomputeCells
// fills headerOK (and the slot-0 partial sums) only for the pool
// indices slot 0 can take, and eq1/eq2 only for the slots the walk can
// give each cell; the rest keep whatever the reused buffers held.  The
// suffix table reads those tables only at its tail slots' (cell, slot)
// entries, and rebuilds its own buffers per pair.  So before each Pair
// every buffer is poisoned — true for the boolean tables, random words
// for the sums, CRC contributions and suffix-table entries — and the
// Counts must still equal refEnumerate's, over the
// TestDifferentialFullMatrix geometries and every pair of runt sizes.
func TestPrecomputeSkipsOnlyUnreachable(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	e := NewEnumerator()
	st := &e.st
	const room = 1 << 12 // past any table these geometries need
	st.headerOK = make([]bool, 0, room)
	st.eq1 = make([]bool, 0, room)
	st.eq2 = make([]bool, 0, room)
	st.sumHead = make([]uint16, 0, room)
	st.pairHead = make([]fletcher.Pair, 0, room)
	st.crcContrib = make([]uint64, 0, room)
	st.tailCells = make([]suffixEntry, 0, room)
	st.suffix = make([]suffixEntry, 0, room)
	st.sufStart = make([]suffixStart, 0, room)
	poisonEntries := func(es []suffixEntry) {
		for i := range es {
			w := rng.Uint64()
			es[i] = suffixEntry{crc: uint32(w), key: uint16(w >> 32), eq: uint8(w >> 48), fromP1: uint8(w>>56) % (suffixSlots + 1)}
		}
	}
	check := func(p1, p2 []byte, cfg Config, what string) {
		t.Helper()
		for _, b := range [][]bool{st.headerOK, st.eq1, st.eq2} {
			b = b[:cap(b)]
			for i := range b {
				b[i] = true
			}
		}
		sums := st.sumHead[:cap(st.sumHead)]
		for i := range sums {
			sums[i] = uint16(rng.Uint32())
		}
		pairs := st.pairHead[:cap(st.pairHead)]
		for i := range pairs {
			pairs[i] = fletcher.Pair{A: uint16(rng.Uint32()), B: uint16(rng.Uint32())}
		}
		contrib := st.crcContrib[:cap(st.crcContrib)]
		for i := range contrib {
			contrib[i] = rng.Uint64()
		}
		poisonEntries(st.tailCells[:cap(st.tailCells)])
		poisonEntries(st.suffix[:cap(st.suffix)])
		starts := st.sufStart[:cap(st.sufStart)]
		for i := range starts {
			starts[i].at = rng.IntN(room)
			for j := range starts[i].byP1 {
				starts[i].byP1[j] = rng.Uint64()
			}
		}
		got := e.Pair(p1, p2, cfg)
		for _, c := range []int{cap(st.headerOK), cap(st.eq1), cap(st.eq2), cap(st.sumHead), cap(st.pairHead), cap(st.crcContrib),
			cap(st.tailCells), cap(st.suffix), cap(st.sufStart)} {
			if c != room {
				t.Fatalf("%s: a table outgrew its poisoned buffer", what)
			}
		}
		if want := refEnumerate(p1, p2, cfg); got != want {
			t.Errorf("%s %+v:\n got %+v\nwant %+v", what, cfg.Opts, got, want)
		}
	}
	for ci, cfg := range fullMatrixConfigs() {
		noCRC := cfg
		noCRC.CheckCRC = false
		for kind := 0; kind < 5; kind++ {
			sizes := [2]int{160, 160}
			switch kind {
			case 2:
				sizes = [2]int{7, 150}
			case 4:
				sizes = [2]int{97, 53}
			}
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, sizes[0], kind))
			p2 := flow.NextPacket(nil, makePayload(rng, sizes[1], kind))
			what := fmt.Sprintf("cfg[%d] kind %d", ci, kind)
			check(p1, p2, cfg, what)
			check(p1, p2, noCRC, what+" (no CRC)")
		}
	}
	runts := []int{1, 2, 5, 7, 8, 9, 10, 11, 48, 52, 53, 54, 55, 96, 100, 101, 149, 150, 151, 152, 153, 199}
	for _, cfg := range []Config{
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgTCP, Placement: tcpip.PlacementTrailer}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256, Placement: tcpip.PlacementTrailer}, CheckCRC: true},
	} {
		for _, n1 := range runts {
			for _, n2 := range runts {
				flow := tcpip.NewLoopbackFlow(cfg.Opts)
				p1 := flow.NextPacket(nil, makePayload(rng, n1, rng.IntN(5)))
				p2 := flow.NextPacket(nil, makePayload(rng, n2, rng.IntN(5)))
				check(p1, p2, cfg, fmt.Sprintf("runt n1=%d n2=%d", n1, n2))
			}
		}
	}
}

// TestSuffixTableGeometries holds the suffix-table walk to refEnumerate
// over the full options matrix, with the CRC check on and off, at every
// split of need = n2−1 slots into the stack walk's h and the table's k:
// need 1 (no table: the visiting walk), 2, 3, 4 and 6, and 22- and
// 23-cell packets 2 (the latter a 1024-byte segment).  Packet 2's last
// cell carries 2 to 40 SDU bytes, so no pair takes the runt path.
//
// The packet-1/packet-2 boundary m1 moves across the table's pool
// range [h, h+m1+k): before it (m1 ≤ h, every tail from packet 2),
// inside it, and far enough in (m1 ≥ h+k) that a whole tail can come
// from packet 1.  A packet 1 shorter than packet 2 fails the header
// battery on its length, so those pairs give packet 1 packet 2's
// 40-byte header to open the walk.  Every pair also offers packet 2's
// own header cell at slot 0, the identity's prefix, where the walk
// stops.
func TestSuffixTableGeometries(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 3))
	type geom struct{ n1, n2 int }
	geoms := []geom{
		{7, 2}, {2, 2}, // need 1
		{7, 3}, {2, 3}, // need 2
		{7, 4}, {3, 4}, {2, 4}, // need 3
		{7, 5}, {4, 5}, {2, 5}, // need 4
		{7, 7}, {6, 7}, {5, 7}, {2, 7}, {1, 7}, // need 6
		{2, 22}, {3, 22}, {2, 23}, {4, 23},
	}
	// payFor returns a payload length whose packet has n cells and
	// carries 2 to 40 SDU bytes in its last cell; fixed is what the
	// packet adds around the payload.
	payFor := func(n, fixed int) int {
		lo := max(0, (n-1)*atm.PayloadSize+2-fixed)
		hi := n*atm.PayloadSize - atm.TrailerSize - fixed
		return lo + rng.IntN(hi-lo+1)
	}
	e := NewEnumerator()
	regions := map[string]int{}
	tables := map[int]int{} // by need
	for ci, cfg := range fullMatrixConfigs() {
		noCRC := cfg
		noCRC.CheckCRC = false
		for _, g := range geoms {
			kind := rng.IntN(5)
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			fixed := cfg.Opts.PacketLen(0)
			var p1, p2 []byte
			if g.n1 == g.n2 {
				pay := payFor(g.n2, fixed)
				p1 = flow.NextPacket(nil, makePayload(rng, pay, kind))
				p2 = flow.NextPacket(nil, makePayload(rng, pay, kind))
			} else {
				p2 = flow.NextPacket(nil, makePayload(rng, payFor(g.n2, fixed), kind))
				p1 = append(bytes.Clone(p2[:tcpip.HeadersLen]),
					makePayload(rng, payFor(g.n1, tcpip.HeadersLen), kind)...)
			}
			if atm.CellCount(len(p1)) != g.n1 || atm.CellCount(len(p2)) != g.n2 {
				t.Fatalf("%v: built %d and %d cells", g, atm.CellCount(len(p1)), atm.CellCount(len(p2)))
			}
			for _, c := range []Config{cfg, noCRC} {
				got := e.Pair(p1, p2, c)
				if want := refEnumerate(p1, p2, c); got != want {
					t.Errorf("cfg[%d] %+v crc=%v %v:\n got %+v\nwant %+v", ci, c.Opts, c.CheckCRC, g, got, want)
				}
				st := &e.st
				need := g.n2 - 1
				if wantK := min(suffixSlots, max(need-1, 0)); st.k != wantK {
					t.Fatalf("%v: suffix table covers %d slots, want %d", g, st.k, wantK)
				}
				if !st.suffixBuilt {
					continue
				}
				tables[need]++
				switch {
				case st.m1 <= st.h:
					regions["before"]++
				case st.m1 < st.h+st.k:
					regions["inside"]++
				default:
					regions["after"]++
				}
			}
		}
	}
	for _, need := range []int{2, 3, 4, 6, 21, 22} {
		if tables[need] == 0 {
			t.Errorf("no pair with need %d reached the suffix table", need)
		}
	}
	for _, r := range []string{"before", "inside", "after"} {
		if regions[r] == 0 {
			t.Errorf("no pair put m1 %s the suffix table's range", r)
		}
	}
}

// TestCarriedMatchesFresh checks the carry of packet 2's precompute
// into the next pair: one enumerator walks flows, the way sim.Run feeds
// it, from two alternating buffers, and every Counts must equal a fresh
// EnumeratePair's.  The flows mix runts and cell-count changes in both
// directions; the carried packet 1 meets a different config than the
// one it was precomputed under (the CRC check on, off and on again,
// Fletcher-255 and -256 in turn, ZeroIPHeader, both placements, and
// flows whose Fletcher modulus flips on every pair); and a
// caller rewrites packet 2's buffer in place before passing it as the
// next packet 1, which the carry must notice.
func TestCarriedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	sizes := []int{256, 256, 7, 256, 1024, 100, 53, 256, 256, 1, 2, 150, 8, 49, 256, 255, 97, 1000, 256, 160}
	crcOn := Config{CheckCRC: true}
	switched := []Config{
		crcOn,
		{},
		crcOn,
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher255}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher255, Placement: tcpip.PlacementTrailer}},
		{Opts: tcpip.BuildOptions{ZeroIPHeader: true}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Placement: tcpip.PlacementTrailer}, CheckCRC: true},
		{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256, ZeroIPHeader: true, NoInvert: true}, CheckCRC: true},
	}
	e := NewEnumerator()
	var carried, fresh int
	pair := func(p1, p2 []byte, cfg Config, what string) {
		t.Helper()
		kept := e.pk2
		got := e.Pair(p1, p2, cfg)
		if e.pk1 == kept {
			carried++
		} else {
			fresh++
		}
		if want := EnumeratePair(p1, p2, cfg); got != want {
			t.Errorf("%s %+v crc=%v len %d→%d:\n got %+v\nwant %+v", what, cfg.Opts, cfg.CheckCRC, len(p1), len(p2), got, want)
		}
	}
	// walk feeds one flow of the given payload sizes, choosing each
	// pair's config with cfgFor and, when rewrite says so, overwriting
	// packet 2's buffer with another packet of its length before it
	// becomes packet 1.
	walk := func(what string, opts tcpip.BuildOptions, cfgFor func(i int) Config, rewrite func(i int) bool) {
		flow := tcpip.NewLoopbackFlow(opts)
		var bufs [2][]byte
		var prev []byte
		for i, n := range sizes {
			pkt := flow.NextPacket(bufs[i&1][:0], makePayload(rng, n, rng.IntN(5)))
			bufs[i&1] = pkt[:0]
			if prev != nil {
				pair(prev, pkt, cfgFor(i), fmt.Sprintf("%s pair %d", what, i))
			}
			if rewrite(i) {
				other := tcpip.NewLoopbackFlow(opts).NextPacket(nil, makePayload(rng, n, 0))
				copy(pkt, other)
			}
			prev = pkt
		}
	}
	never := func(int) bool { return false }
	for ci, cfg := range fullMatrixConfigs() {
		noCRC := cfg
		noCRC.CheckCRC = false
		walk(fmt.Sprintf("cfg[%d]", ci), cfg.Opts, func(int) Config { return cfg }, never)
		walk(fmt.Sprintf("cfg[%d] (no CRC)", ci), cfg.Opts, func(int) Config { return noCRC }, never)
	}
	wantCarried := carried
	walk("switched", tcpip.BuildOptions{}, func(i int) Config { return switched[i%len(switched)] }, never)
	walk("switched trailer", tcpip.BuildOptions{Placement: tcpip.PlacementTrailer},
		func(i int) Config { return switched[(i+4)%len(switched)] }, never)
	// Fletcher pairs are kept per modulus: every pair switches it.
	f255 := Config{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher255}, CheckCRC: true}
	f256 := Config{Opts: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256}, CheckCRC: true}
	for r := range 4 {
		walk(fmt.Sprintf("moduli %d", r), f255.Opts, func(i int) Config { return [2]Config{f255, f256}[(i+r)%2] }, never)
	}
	if want := 6 * (len(sizes) - 2); carried-wantCarried != want {
		t.Errorf("carried %d of the switched flows' pairs, want all but their first (%d)", carried-wantCarried, want)
	}
	before := carried
	walk("rewritten", tcpip.BuildOptions{}, func(int) Config { return crcOn }, func(i int) bool { return i%2 == 0 })
	if got, want := carried-before, (len(sizes)-2)/2; got != want {
		t.Errorf("carried %d of the rewritten flow's pairs, want the %d whose packet 1 was not rewritten", got, want)
	}
	if fresh == 0 || carried == 0 {
		t.Fatalf("%d carried and %d fresh pairs; the test needs both", carried, fresh)
	}
}

// TestCRCTargetMatchesTrailer holds the CRC-32 target, the XOR of
// packet 2's own cells' slot terms (the identity splice), to the
// formula it replaced: the trailer's CRC unfinalized and folded with
// the base term, the init register shifted past the splice and the
// pinned cell's covered bytes.  Payload sizes 0 to 150 give every
// packet-2 geometry from one cell (need 0) up to four, including each
// runt whose last cell carries no SDU byte, under the full options
// matrix.
func TestCRCTargetMatchesTrailer(t *testing.T) {
	trailerWant := func(p2 []byte) uint64 {
		cells, err := atm.AppendSegment(nil, p2, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		last := cells[len(cells)-1].Payload[:]
		tr := atm.DecodeTrailer(last)
		reg := tailShift.Apply(crc32Table.RawInit())
		for range len(cells) - 1 {
			reg = cellShift.Apply(reg)
		}
		base := reg ^ crc32Table.RawUpdate(0, last[:crcCoveredTail])
		return crc32Table.RawFromCRC(uint64(tr.CRC)) ^ base
	}
	rng := rand.New(rand.NewPCG(33, 2))
	e := NewEnumerator()
	needs := map[int]int{}
	runts := 0
	for ci, cfg := range fullMatrixConfigs() {
		flow := tcpip.NewLoopbackFlow(cfg.Opts)
		for pay := 0; pay <= 150; pay++ {
			p1 := flow.NextPacket(nil, makePayload(rng, 256, rng.IntN(5)))
			p2 := flow.NextPacket(nil, makePayload(rng, pay, rng.IntN(5)))
			e.Pair(p1, p2, cfg)
			if got, want := e.st.crcWant, trailerWant(p2); got != want {
				t.Errorf("cfg[%d] %+v payload %d: crcWant %#x, trailer formula %#x", ci, cfg.Opts, pay, got, want)
			}
			needs[e.st.n2-1]++
			if len(p2) <= (e.st.n2-1)*atm.PayloadSize {
				runts++
			}
		}
	}
	for _, need := range []int{0, 1, 2} {
		if needs[need] == 0 {
			t.Errorf("no packet 2 with need %d", need)
		}
	}
	if runts == 0 {
		t.Error("no packet 2 whose last cell carries no SDU byte")
	}
}

// TestEnumeratorMatchesEnumeratePair pins the wrapper to the reusable
// path.
func TestEnumeratorMatchesEnumeratePair(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, makePayload(rng, 256, 3))
	p2 := flow.NextPacket(nil, makePayload(rng, 256, 3))
	e := NewEnumerator()
	if got, want := e.Pair(p1, p2, cfg), EnumeratePair(p1, p2, cfg); got != want {
		t.Errorf("Enumerator.Pair diverges from EnumeratePair:\n got %+v\nwant %+v", got, want)
	}
}

// TestPruningEdgeEmbeddedHeader pins the boundary of the counting-mode
// shortcut at the Tables 1–3 geometry (256-byte payloads, 7-cell
// pairs).  Packet 1's payload carries a copy of packet 2's 40-byte
// TCP/IP header at payload offset 48k−40, i.e. at the start of its cell
// k, so that interior cell passes the header battery as a first cell:
// its subtree must be walked, not counted as caught by the header.
func TestPruningEdgeEmbeddedHeader(t *testing.T) {
	const payLen = 256
	rng := rand.New(rand.NewPCG(14, 14))
	e := NewEnumerator()
	for ci, cfg := range fullMatrixConfigs() {
		kind := rng.IntN(5)
		pay1 := makePayload(rng, payLen, kind)
		pay2 := makePayload(rng, payLen, kind)
		build := func(pay1 []byte) (p1, p2 []byte) {
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 = flow.NextPacket(nil, pay1)
			return p1, flow.NextPacket(nil, pay2)
		}
		p1, p2 := build(pay1)
		if n := atm.CellCount(len(p2)); n != 7 {
			t.Fatalf("packet 2 has %d cells, want 7", n)
		}
		plain := e.Pair(p1, p2, cfg)
		if want := refEnumerate(p1, p2, cfg); plain != want {
			t.Errorf("cfg[%d] %+v plain:\n got %+v\nwant %+v", ci, cfg.Opts, plain, want)
		}
		for k := 1; k <= 5; k++ {
			emb := bytes.Clone(pay1)
			copy(emb[atm.PayloadSize*k-tcpip.HeadersLen:], p2[:tcpip.HeadersLen])
			q1, q2 := build(emb)
			if !bytes.Equal(q2, p2) {
				t.Fatalf("cfg[%d]: packet 2 depends on packet 1's payload bytes", ci)
			}
			got := e.Pair(q1, q2, cfg)
			if want := refEnumerate(q1, q2, cfg); got != want {
				t.Errorf("cfg[%d] %+v header at cell %d:\n got %+v\nwant %+v", ci, cfg.Opts, k, got, want)
			}
			if got.CaughtByHeader >= plain.CaughtByHeader {
				t.Errorf("cfg[%d] %+v header at cell %d: CaughtByHeader %d, want below the plain pair's %d",
					ci, cfg.Opts, k, got.CaughtByHeader, plain.CaughtByHeader)
			}
		}
	}
}

// TestCountingMatchesVisiting checks the counting walk, which counts
// header-caught subtrees without visiting them, against the
// brute-force refEnumerate, which visits every leaf, materializes its
// splice and classifies it: identical Counts over the full options
// matrix at payload-size pairs with runts and unequal cell counts in
// both directions.
func TestCountingMatchesVisiting(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	type geom struct{ n1, n2 int }
	geoms := []geom{{160, 160}, {256, 256}, {7, 150}, {97, 53}}
	for _, n1 := range []int{1, 5, 8, 11, 48, 53, 101, 151, 199} {
		geoms = append(geoms, geom{n1, []int{2, 9, 54, 100, 152}[rng.IntN(5)]})
	}
	e := NewEnumerator()
	for ci, cfg := range fullMatrixConfigs() {
		for _, g := range geoms {
			kind := rng.IntN(5)
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, g.n1, kind))
			p2 := flow.NextPacket(nil, makePayload(rng, g.n2, kind))
			counted := e.Pair(p1, p2, cfg)
			visited := refEnumerate(p1, p2, cfg)
			if counted != visited {
				t.Errorf("cfg[%d] %+v %v:\ncounted %+v\nvisited %+v", ci, cfg.Opts, g, counted, visited)
			}
		}
	}
}

// TestBinomialTable checks the table the counting walk reads subtree
// sizes from.
func TestBinomialTable(t *testing.T) {
	if got := binomial[12][6]; got != 924 {
		t.Errorf("C(12,6) = %d, want 924", got)
	}
	for n := range binomial {
		var sum uint64
		for k := 0; k <= n; k++ {
			sum += binomial[n][k]
		}
		if sum != 1<<n {
			t.Errorf("row %d sums to %d, want 2^%d", n, sum, n)
		}
	}
}

// TestEnumeratorSteadyStateZeroAllocs is the allocation regression
// gate: once warm, enumerating a pair must not allocate, fresh or with
// packet 1 carried from the previous pair, for the plain TCP path, the
// Fletcher/trailer path, the CRC-checked path, and the checksum targets
// that read the stored field (non-inverted, and a trailer field at an
// odd offset) alike.
func TestEnumeratorSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	cases := []struct {
		name string
		cfg  Config
		pay  int
	}{
		{"tcp-crc", Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}, 256},
		{"tcp-nocrc", Config{Opts: tcpip.BuildOptions{}}, 256},
		{"fletcher256-trailer-crc", Config{
			Opts:     tcpip.BuildOptions{Alg: tcpip.AlgFletcher256, Placement: tcpip.PlacementTrailer},
			CheckCRC: true,
		}, 256},
		{"tcp-zeroip", Config{Opts: tcpip.BuildOptions{ZeroIPHeader: true}, CheckCRC: true}, 256},
		{"fletcher255-noinvert", Config{
			Opts:     tcpip.BuildOptions{Alg: tcpip.AlgFletcher255, NoInvert: true},
			CheckCRC: true,
		}, 256},
		{"tcp-trailer-oddfield", Config{
			Opts:     tcpip.BuildOptions{Placement: tcpip.PlacementTrailer},
			CheckCRC: true,
		}, 255},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flow := tcpip.NewLoopbackFlow(tc.cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, tc.pay, 3))
			p2 := flow.NextPacket(nil, makePayload(rng, tc.pay, 4))
			if off := tc.cfg.Opts.ChecksumOffset(len(p2)) - tcpip.IPv4HeaderLen; tc.pay%2 == 1 && off%2 == 0 {
				t.Fatalf("checksum field at segment offset %d, want odd", off)
			}
			// The chain (p1, p2), (p2, p3) runs both the fresh path and
			// the carried one: p2's precompute carries into the second
			// pair.
			p3 := flow.NextPacket(nil, makePayload(rng, tc.pay, 0))
			e := NewEnumerator()
			chain := func() {
				e.Pair(p1, p2, tc.cfg)
				kept := e.pk2
				e.Pair(p2, p3, tc.cfg)
				if e.pk1 != kept {
					t.Fatal("packet 2 of the first pair did not carry into the second")
				}
			}
			chain() // warm the buffers
			avg := testing.AllocsPerRun(50, chain)
			if avg != 0 {
				t.Errorf("steady-state Pair allocates %.1f objects per two pairs, want 0", avg)
			}
			if !e.st.suffixBuilt {
				t.Errorf("the pair never reached the suffix table")
			}
		})
	}
}

var benchSink Counts

// BenchmarkEnumeratorPair times one warm enumerator classifying the
// same pair over and over, with the CRC check on; header-caught
// subtrees are counted in O(1).  Packet 1 is never the previous call's
// packet 2, so every call precomputes both packets: this is the
// uncarried path (BenchmarkEnumeratorFlow times the carried one).  It
// reports ns
// per candidate splice, ns per walked candidate (one the header battery
// did not catch, so the walk classified it) and the share of candidates
// the header battery caught.
//
//   - count: two 256-byte TCP segments, 7 cells each (923 candidates,
//     462 walked), the Tables 1–3 geometry;
//   - fletcher255-trailer: the same pair under Fletcher-255 with the
//     checksum in the trailer (Tables 8 and 9);
//   - tcp-1024: a 23-cell packet 2 (a 1024-byte segment) after a
//     1000-byte packet whose cell 16 carries packet 2's header.  Every
//     other packet-1 cell fails the header battery (packet 1's own
//     header on its length), so the walk counts 1.05·10¹² splices and
//     walks the 65780 under cell 16 through a 2024-entry suffix table.
func BenchmarkEnumeratorPair(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	pair := func(opts tcpip.BuildOptions, n1, n2 int) (p1, p2 []byte) {
		flow := tcpip.NewLoopbackFlow(opts)
		return flow.NextPacket(nil, payload[:n1]), flow.NextPacket(nil, payload[:n2])
	}
	tcp := tcpip.BuildOptions{}
	f255 := tcpip.BuildOptions{Alg: tcpip.AlgFletcher255, Placement: tcpip.PlacementTrailer}
	p1, p2 := pair(tcp, 256, 256)
	f1, f2 := pair(f255, 256, 256)
	w1, w2 := pair(tcp, 1000, 1024)
	w1 = bytes.Clone(w1)
	copy(w1[tcpip.HeadersLen+16*atm.PayloadSize-tcpip.HeadersLen:], w2[:tcpip.HeadersLen])
	for _, bc := range []struct {
		name   string
		p1, p2 []byte
		opts   tcpip.BuildOptions
	}{
		{"count", p1, p2, tcp},
		{"fletcher255-trailer", f1, f2, f255},
		{"tcp-1024", w1, w2, tcp},
	} {
		cfg := Config{Opts: bc.opts, CheckCRC: true}
		b.Run(bc.name, func(b *testing.B) {
			e := NewEnumerator()
			c := e.Pair(bc.p1, bc.p2, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = e.Pair(bc.p1, bc.p2, cfg)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(c.Total), "ns/candidate")
			b.ReportMetric(ns/float64(c.Total-c.CaughtByHeader), "ns/walked")
			b.ReportMetric(float64(c.CaughtByHeader)/float64(c.Total), "header-caught-share")
		})
	}
}

// BenchmarkEnumeratorFlow times the traffic sim.Run sends: one
// enumerator walking every adjacent pair of a flow of 256-byte
// segments, from two alternating packet buffers, with the CRC check on,
// so each packet 2 is carried as the next pair's packet 1.  The flow
// carries 64 KiB of each of three corpus file types.  It reports ns
// per pair and ns per candidate splice.
func BenchmarkEnumeratorFlow(b *testing.B) {
	for _, ft := range []corpus.FileType{corpus.CSource, corpus.Executable, corpus.EnglishText} {
		data := corpus.NewFileSpec(ft, 64<<10, 1).Generate()
		cfg := Config{CheckCRC: true}
		b.Run(ft.String(), func(b *testing.B) {
			e := NewEnumerator()
			var bufs [2][]byte
			var prev []byte
			var pairs, cands uint64
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			b.ReportAllocs()
			for i, off := 0, 0; i < b.N; i++ {
				if off >= len(data) {
					// A new file: a new flow, and no pair across files.
					flow, off, prev = tcpip.NewLoopbackFlow(cfg.Opts), 0, nil
				}
				pkt := flow.NextPacket(bufs[i&1][:0], data[off:min(off+256, len(data))])
				bufs[i&1] = pkt[:0]
				off += 256
				if prev != nil {
					c := e.Pair(prev, pkt, cfg)
					pairs++
					cands += c.Total
				}
				prev = pkt
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(max(pairs, 1)), "ns/pair")
			b.ReportMetric(ns/float64(max(cands, 1)), "ns/candidate")
		})
	}
}

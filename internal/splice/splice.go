// Package splice implements the paper's central experiment: exhaustive
// enumeration of AAL5 packet splices over pairs of adjacent TCP/IP
// packets, and classification of every splice against the layered
// checks a receiver would apply — AAL5 framing, the syntactic TCP/IP
// header battery, the AAL5 CRC-32 and the transport checksum.
//
// A splice (§3.1) arises when cell losses leave an order-preserving
// subsequence of two adjacent packets' cells that still looks like one
// AAL5 packet.  Three structural constraints bound the space:
//
//   - the last cell of the splice must be an end-of-packet-marked cell,
//     and the only usable one is the second packet's trailer cell (the
//     first packet's marked cell may not appear in the interior);
//   - the splice's cell count must match the AAL5 length field carried
//     in that trailer cell;
//   - cells cannot be reordered.
//
// For two n-cell packets with the first packet's header cell kept, that
// yields C(2n−3, n−2) candidates — 462 for the 7-cell packets of a
// 256-byte transfer (§4.6).
//
// Enumeration is an iterative depth-first walk over a stack of branch
// states, one per chosen cell, each carrying incremental checksum state:
// the ones-complement sum composes across cells by plain addition
// (§4.1), the Fletcher pair composes with the positional shift
// B += A·off (§5.2), and the CRC-32 register is affine over GF(2) in the
// chosen cells, so each take step extends it with one XOR against a
// per-pair table of slot contributions (see crc.SlotContribs).  A full
// splice is therefore classified in O(cells) XOR/add steps instead of
// O(bytes), which is what makes whole-file-system enumeration cheap.
//
// The walk counts; it never visits what it can count.  Once the slot-0
// cell fails the header battery, every splice below it is caught by the
// header, so the walk adds that subtree's size from a binomial table in
// O(1) instead of visiting its leaves.  On the Tables 1–3
// corpora 50.1% of candidates are caught this way, and the per-pair
// cost (the splice.pair layer of the benchmark) fell from 58 to 33 µs,
// 64 to 36 ns per candidate, on a 2-vCPU Intel Xeon with go1.24.
//
// The per-pair precompute costs table lookups and memory compares: a
// cell's CRC-32 slot contributions step from slot to slot through a
// precomputed 48-byte shift operator, four lookups per slot, and the
// equality maps are filled by slice compares, only for the slots the
// walk can give each cell.  That took splice.pair from 25.0 to 19.7 µs
// per pair (27.4 to 21.6 ns per candidate) on the same machine.
package splice

import (
	"bytes"

	"realsum/internal/atm"
	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
	"realsum/internal/onescomp"
	"realsum/internal/tcpip"
)

// MaxCells bounds the per-packet cell count the length-bucketed
// counters track (a 65535-byte SDU is 1366 cells; buckets above
// MaxCells-1 are clamped).
const MaxCells = 32

// crcCoveredTail is how many bytes of the pinned trailer cell the AAL5
// CRC-32 covers: the whole payload minus the 4-byte CRC field itself.
const crcCoveredTail = atm.PayloadSize - 4

// Counts aggregates the classification of every inspected splice, in
// the row layout of Tables 1–3.
type Counts struct {
	Pairs uint64 // adjacent packet pairs enumerated

	Total          uint64 // candidate splices (identity excluded)
	CaughtByHeader uint64 // failed the §3.1 TCP/IP header battery
	Identical      uint64 // data identical to one original packet
	Remaining      uint64 // corrupted splices only the checksums can catch

	MissedByCRC      uint64 // Remaining splices the AAL5 CRC-32 passed
	MissedByChecksum uint64 // Remaining splices the transport checksum passed
	MissedByBoth     uint64 // Remaining splices both checks passed

	// IdenticalFailedChecksum counts identical-data splices the
	// transport checksum nonetheless rejected — zero for header
	// checksums, large for trailer checksums (Table 10's asymmetry).
	IdenticalFailedChecksum uint64

	// IdenticalPassedChecksum counts identical-data splices the
	// transport checksum accepted.
	IdenticalPassedChecksum uint64

	// RemainingByLen and MissedByLen bucket Remaining splices by
	// substitution length — the number of second-packet cells in the
	// splice — feeding Table 6's "Actual" rows.
	RemainingByLen [MaxCells]uint64
	MissedByLen    [MaxCells]uint64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Pairs += o.Pairs
	c.Total += o.Total
	c.CaughtByHeader += o.CaughtByHeader
	c.Identical += o.Identical
	c.Remaining += o.Remaining
	c.MissedByCRC += o.MissedByCRC
	c.MissedByChecksum += o.MissedByChecksum
	c.MissedByBoth += o.MissedByBoth
	c.IdenticalFailedChecksum += o.IdenticalFailedChecksum
	c.IdenticalPassedChecksum += o.IdenticalPassedChecksum
	for i := range c.RemainingByLen {
		c.RemainingByLen[i] += o.RemainingByLen[i]
		c.MissedByLen[i] += o.MissedByLen[i]
	}
}

// MissRate returns missed/Remaining as a fraction — the percentage
// columns of the tables.  ok is false when no splice remained, so the
// rate is unknown rather than zero.
func (c Counts) MissRate(missed uint64) (rate float64, ok bool) {
	if c.Remaining == 0 {
		return 0, false
	}
	return float64(missed) / float64(c.Remaining), true
}

// Config selects which checks the enumeration applies.
type Config struct {
	// Opts describes how the packets were built; verification mirrors
	// construction (algorithm, placement, inversion, IP-header fill).
	Opts tcpip.BuildOptions
	// CheckCRC enables the AAL5 CRC-32 test (Tables 1–3, 7).  When
	// false MissedByCRC stays zero and enumeration is faster.
	CheckCRC bool
}

// crc32Table and its two shift operators are shared by every
// enumerator: cellShift advances a raw register past one slot (a cell
// payload), tailShift past the CRC-covered bytes of the pinned trailer
// cell.  Together they are 16 KiB, built once at init.
var (
	crc32Table = crc.New(crc.CRC32)
	cellShift  = crc32Table.NewShift(atm.PayloadSize)
	tailShift  = crc32Table.NewShift(crcCoveredTail)
)

// Enumerator owns the reusable per-pair state of the splice walk.  One
// enumerator processes any number of pairs sequentially; after the
// first few pairs warm its buffers, enumeration allocates nothing.  An
// Enumerator is not safe for concurrent use — give each worker its own.
type Enumerator struct {
	st             pairState
	cells1, cells2 []atm.Cell
}

// NewEnumerator returns an empty enumerator; buffers grow on first use.
func NewEnumerator() *Enumerator { return &Enumerator{} }

// Pair inspects every candidate splice of two adjacent packets (full
// IPv4 packets as built by tcpip.Flow) and returns the classification
// counts.  Packets too short to segment are ignored.
func (e *Enumerator) Pair(p1, p2 []byte, cfg Config) Counts {
	var err1, err2 error
	e.cells1, err1 = atm.AppendSegment(e.cells1[:0], p1, 0, 32)
	e.cells2, err2 = atm.AppendSegment(e.cells2[:0], p2, 0, 32)
	if err1 != nil || err2 != nil {
		return Counts{}
	}
	st := &e.st
	st.reset(p1, p2, e.cells1, e.cells2, cfg)
	st.enumerate()
	return st.counts
}

// EnumeratePair inspects every candidate splice of two adjacent packets
// with a throwaway enumerator.  Callers processing streams of pairs
// should hold an Enumerator instead to amortize the state.
func EnumeratePair(p1, p2 []byte, cfg Config) Counts {
	var e Enumerator
	return e.Pair(p1, p2, cfg)
}

// pairState holds the per-pair precomputation shared by all branches of
// one enumeration.  All slice fields are reusable buffers sized by
// reset; scalar fields are reassigned wholesale per pair.
type pairState struct {
	cfg Config

	l1, l2 int // SDU (IP packet) lengths
	n2     int // splice cell count = cells of packet 2

	pool     [][]byte // candidate cell payloads: P1[0..n1-2] then P2[0..n2-2]
	m1       int      // first m1 pool entries come from packet 1
	lastCell []byte   // pinned trailer cell payload (P2's last)

	// Header validity of each pool cell if it were the splice's first
	// cell, plus the same for the pinned last cell (the n2 == 1 case).
	// Only the indices slot 0 can take, i ≤ len(pool)−need, are filled.
	headerOK     []bool
	lastHeaderOK bool

	// Incremental transport-checksum precomputation.
	pseudo   uint16 // pseudo-header sum for an L2-byte packet
	sum48    []uint16
	sumHead  []uint16 // cell bytes 20..48 (slot-0 contribution; filled as headerOK)
	sumLast  uint16   // last cell's SDU-prefix contribution
	lastLen  int      // SDU bytes carried by the last cell
	fmod     fletcher.Mod
	pair48   []fletcher.Pair
	pairHead []fletcher.Pair
	pairLast fletcher.Pair

	// Equality maps for identical-data detection, flattened with stride
	// n2: eq1[i*n2+s] ⇔ pool cell i placed at slot s matches packet 1's
	// SDU there (checksum field bytes excluded); likewise eq2 against
	// packet 2.  Only the slots the walk can give cell i are filled (see
	// slotRange); the walk reads no other entry.
	eq1, eq2     []bool
	lastEq1      bool // pinned last cell vs packet 1's final slot
	sameLen      bool // l1 == l2, a precondition for identical-to-P1
	fieldOff     int  // checksum field offset within the SDU
	slowVerify   bool // incremental state invalid; materialize instead
	coverFull    bool // ZeroIPHeader: checksum covers the whole SDU
	p1sdu, p2sdu []byte

	// Affine CRC state: the register of a full splice decomposes as
	// base ⊕ Σ crcContrib[cell, slot], so each take-step is one XOR and
	// the leaf check is one comparison against crcWant (the trailer CRC
	// unfinalized and folded with the base term).  crcContrib is
	// flattened with stride crcSlots = n2−1.
	crcSlots   int
	crcContrib []uint64
	crcWant    uint64

	stack  []branch // stack[d]: branch state after d cells are chosen
	sel    []int    // sel[d]: pool index chosen at slot d
	sdubuf []byte   // scratch for materialized verification

	counts Counts
}

// grow returns a length-n slice, reusing buf's capacity when possible.
// Contents are unspecified; callers overwrite every element.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset rebuilds the per-pair state in place for a new packet pair.
func (st *pairState) reset(p1, p2 []byte, cells1, cells2 []atm.Cell, cfg Config) {
	st.cfg = cfg
	st.l1, st.l2 = len(p1), len(p2)
	st.n2 = len(cells2)
	st.m1 = len(cells1) - 1
	st.sameLen = len(p1) == len(p2)
	st.p1sdu, st.p2sdu = p1, p2
	st.counts = Counts{Pairs: 1}
	st.slowVerify = false
	st.coverFull = false
	st.pseudo = 0
	st.fmod = 0

	// Candidate pool: P1's cells except its marked trailer, then P2's
	// cells except the pinned trailer.
	st.pool = st.pool[:0]
	for i := 0; i < len(cells1)-1; i++ {
		st.pool = append(st.pool, cells1[i].Payload[:])
	}
	for i := 0; i < len(cells2)-1; i++ {
		st.pool = append(st.pool, cells2[i].Payload[:])
	}
	st.lastCell = cells2[len(cells2)-1].Payload[:]
	st.lastLen = st.l2 - (st.n2-1)*atm.PayloadSize
	if st.lastLen < 0 {
		// The last cell carries only padding and trailer, so a chosen
		// cell at the penultimate slot straddles the end of the SDU and
		// the incremental transport-checksum state overcounts.  Rare
		// (only runt packets hit it); verify those splices by
		// materializing the SDU instead.
		st.lastLen = 0
		st.slowVerify = true
	}
	if st.l2 < (st.n2-1)*atm.PayloadSize+2 && cfg.Opts.Placement == tcpip.PlacementTrailer {
		// Trailer checksum field straddles the final cell boundary.
		st.slowVerify = true
	}

	st.crcSlots = st.n2 - 1
	if cfg.CheckCRC {
		tr := atm.DecodeTrailer(st.lastCell)
		// Fold the init-propagation and pinned-cell terms of the affine
		// decomposition into the target, so a leaf's CRC test is a bare
		// comparison of the branch accumulator against crcWant.
		// The init term is RawInit shifted past crcSlots cells and the
		// covered tail.
		reg := tailShift.Apply(crc32Table.RawInit())
		for range st.crcSlots {
			reg = cellShift.Apply(reg)
		}
		base := reg ^ crc32Table.RawUpdate(0, st.lastCell[:crcCoveredTail])
		st.crcWant = crc32Table.RawFromCRC(uint64(tr.CRC)) ^ base
	}

	st.fieldOff = cfg.Opts.ChecksumOffset(st.l2)
	if cfg.Opts.ZeroIPHeader {
		// §6.2 artifact mode: the checksum covers the whole SDU with no
		// separate pseudo-header.
		st.coverFull = true
	} else {
		st.pseudo = tcpip.PseudoHeaderSum([4]byte{127, 0, 0, 1}, [4]byte{127, 0, 0, 1}, st.l2-tcpip.IPv4HeaderLen)
	}

	switch cfg.Opts.Alg {
	case tcpip.AlgFletcher255:
		st.fmod = fletcher.Mod255
	case tcpip.AlgFletcher256:
		st.fmod = fletcher.Mod256
	}

	st.precomputeCells()
}

// precomputeCells fills the per-pool-cell tables.
func (st *pairState) precomputeCells() {
	n := len(st.pool)
	st.headerOK = grow(st.headerOK, n)
	st.sum48 = grow(st.sum48, n)
	st.sumHead = grow(st.sumHead, n)
	st.pair48 = grow(st.pair48, n)
	st.pairHead = grow(st.pairHead, n)
	st.eq1 = grow(st.eq1, n*st.n2)
	st.eq2 = grow(st.eq2, n*st.n2)
	if st.cfg.CheckCRC {
		st.crcContrib = grow(st.crcContrib, n*st.crcSlots)
	}

	for i, cell := range st.pool {
		lo, hi := st.slotRange(i)
		if lo == 0 {
			st.headerOK[i] = st.headerValid(cell)
			st.sumHead[i] = inet.Sum(cell[tcpip.IPv4HeaderLen:])
			if st.fmod != 0 {
				st.pairHead[i] = st.fmod.Sum(cell[tcpip.IPv4HeaderLen:])
			}
		}
		st.sum48[i] = inet.Sum(cell)
		if st.fmod != 0 {
			st.pair48[i] = st.fmod.Sum(cell)
		}
		for s := lo; s <= hi; s++ {
			st.eq1[i*st.n2+s] = st.eqAt(st.p1sdu, cell, s)
			st.eq2[i*st.n2+s] = st.eqAt(st.p2sdu, cell, s)
		}
		if st.cfg.CheckCRC && st.crcSlots > 0 {
			crc32Table.SlotContribs(st.crcContrib[i*st.crcSlots:(i+1)*st.crcSlots],
				cell, cellShift, tailShift)
		}
	}
	st.lastHeaderOK = st.headerValid(st.lastCell)
	st.sumLast = inet.Sum(st.lastCell[:st.lastLen])
	if st.fmod != 0 {
		st.pairLast = st.fmod.Sum(st.lastCell[:st.lastLen])
	}
	// Pinned last cell vs packet 1's final slot.
	st.lastEq1 = st.sameLen && st.eqAt(st.p1sdu, st.lastCell, st.n2-1)
}

// slotRange returns the slots lo … hi the walk can give pool cell i:
// the selection is strictly increasing, so slot s holds one of the pool
// indices s … s+len(pool)−need.  lo > hi when the cell can hold no slot
// (need = 0); otherwise lo == 0 exactly when the cell can head a splice.
func (st *pairState) slotRange(i int) (lo, hi int) {
	need := st.n2 - 1
	return max(0, i-(len(st.pool)-need)), min(i, need-1)
}

// headerValid reports whether cell, as the splice's first cell, yields
// a syntactically valid 40-byte TCP/IP header consistent with the
// splice length l2 (§3.1's three requirements, transport-layer part).
func (st *pairState) headerValid(cell []byte) bool {
	if st.l2 < tcpip.HeadersLen || len(cell) < tcpip.HeadersLen {
		return false
	}
	var ip tcpip.IPv4Header
	if ip.DecodeFromBytes(cell) != nil {
		return false
	}
	if int(ip.TotalLength) != st.l2 || ip.Protocol != tcpip.ProtocolTCP {
		return false
	}
	if !st.cfg.Opts.ZeroIPHeader && !inet.Verify(cell[:tcpip.IPv4HeaderLen]) {
		return false
	}
	return tcpip.ValidateTCP(cell[tcpip.IPv4HeaderLen:tcpip.HeadersLen]) == nil
}

// eqAt compares cell against orig's SDU at slot s, restricted to SDU
// bytes (offsets < l2 for P2-shaped splices; orig may be shorter) and
// excluding the checksum field at fieldOff.  Past the end of both SDUs
// the slot holds padding and trailer, which never count; a slot where
// one SDU ends and the other does not never matches.
func (st *pairState) eqAt(orig []byte, cell []byte, s int) bool {
	base := s * atm.PayloadSize
	end := min(max(len(orig)-base, 0), atm.PayloadSize)
	if min(max(st.l2-base, 0), atm.PayloadSize) != end {
		return false
	}
	if end == 0 {
		return true
	}
	// The field's bytes within the slot are [a, b), clamped to [0, end].
	a := min(max(st.fieldOff-base, 0), end)
	b := min(max(st.fieldOff+2-base, 0), end)
	o := orig[base:]
	return bytes.Equal(o[:a], cell[:a]) && bytes.Equal(o[b:end], cell[b:end])
}

// branch is the walk state after a prefix of the selection is chosen.
type branch struct {
	fromP1 int // how many chosen cells came from packet 1
	tcpSum uint16
	fpair  fletcher.Pair
	crcAcc uint64 // XOR of the chosen cells' slot contributions
	eq1    bool
	eq2    bool
}

// binomial[n][k] = C(n, k) for 0 ≤ k ≤ n ≤ 62; C(62, 31) still fits a
// uint64.  enumerate counts a header-caught subtree from it in O(1).
var binomial = func() (t [63][63]uint64) {
	for n := range t {
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// enumerate walks every candidate splice: each order-preserving choice
// of need = n2−1 pool cells, in ascending lexicographic order of
// sel[0..need).  stack[d] is the branch after d cells are chosen, so a
// take step writes stack[d+1] from stack[d] and backtracking resumes
// slot d at sel[d]+1.
//
// The walk does not descend below a slot-0 cell whose header battery
// fails: every leaf under it is caught by the header, and a packet-1
// cell at pool index i heads C(len(pool)−i−1, need−1) of them.  A
// packet-2 cell at slot 0 forces the rest of the selection to packet 2
// too, which is the excluded identity.  A pool too large for the
// binomial table (over 62 cells, far past any walk that finishes)
// walks every leaf.
func (st *pairState) enumerate() {
	need := st.n2 - 1
	n := len(st.pool)
	st.stack = grow(st.stack, need+1)
	st.sel = grow(st.sel, need)
	st.stack[0] = branch{eq1: st.sameLen, eq2: true}
	if need == 0 {
		st.leaf(&st.stack[0])
		return
	}
	prune := n <= len(binomial)
	d, i := 0, 0 // i is the next pool index to try at slot d
	for {
		if i > n-need+d {
			// Slot d has no candidate left that leaves enough cells
			// for the slots after it.
			if d == 0 {
				return
			}
			d--
			i = st.sel[d] + 1
			continue
		}
		if d == 0 && prune && !st.headerOK[i] {
			if i < st.m1 {
				c := binomial[n-i-1][need-1]
				st.counts.Total += c
				st.counts.CaughtByHeader += c
			}
			i++
			continue
		}
		st.sel[d] = i
		st.extend(&st.stack[d], &st.stack[d+1], i, d)
		i++
		if d+1 == need {
			st.leaf(&st.stack[need])
			continue
		}
		d++
	}
}

// extend writes into t the branch b with pool[i] taken at slot s.
func (st *pairState) extend(b, t *branch, i, s int) {
	t.fromP1 = b.fromP1
	if i < st.m1 {
		t.fromP1++
	}
	if s == 0 {
		if st.coverFull {
			t.tcpSum = onescomp.Add(b.tcpSum, st.sum48[i])
		} else {
			t.tcpSum = onescomp.Add(b.tcpSum, st.sumHead[i])
		}
		if st.fmod != 0 {
			t.fpair = st.fmod.Append(b.fpair, atm.PayloadSize-tcpip.IPv4HeaderLen, st.pairHead[i])
		}
	} else {
		t.tcpSum = onescomp.Add(b.tcpSum, st.sum48[i])
		if st.fmod != 0 {
			t.fpair = st.fmod.Append(b.fpair, atm.PayloadSize, st.pair48[i])
		}
	}
	t.crcAcc = b.crcAcc
	if st.cfg.CheckCRC {
		t.crcAcc ^= st.crcContrib[i*st.crcSlots+s]
	}
	t.eq1 = b.eq1 && st.eq1[i*st.n2+s]
	t.eq2 = b.eq2 && st.eq2[i*st.n2+s]
}

// materializeSDU rebuilds the splice's SDU bytes from the current
// selection stack plus the pinned last cell.
func (st *pairState) materializeSDU() []byte {
	if cap(st.sdubuf) < st.n2*atm.PayloadSize {
		st.sdubuf = make([]byte, 0, st.n2*atm.PayloadSize)
	}
	buf := st.sdubuf[:0]
	for _, i := range st.sel {
		buf = append(buf, st.pool[i]...)
	}
	buf = append(buf, st.lastCell...)
	st.sdubuf = buf
	return buf[:st.l2]
}

// leaf finalizes one complete splice and classifies it.
func (st *pairState) leaf(b *branch) {
	if b.fromP1 == 0 {
		return // the identity: packet 2 undamaged, packet 1 wholly lost
	}
	st.counts.Total++

	// Header battery.
	hdrOK := st.lastHeaderOK
	if len(st.sel) > 0 {
		hdrOK = st.headerOK[st.sel[0]]
	}
	if !hdrOK {
		st.counts.CaughtByHeader++
		return
	}

	// Transport checksum over the completed splice.
	ckOK := st.checksumPasses(b)

	// Identical data?
	identical := b.eq2 || (b.eq1 && st.lastEq1)
	if identical {
		st.counts.Identical++
		if ckOK {
			st.counts.IdenticalPassedChecksum++
		} else {
			st.counts.IdenticalFailedChecksum++
		}
		return
	}

	st.counts.Remaining++
	subLen := st.n2 - b.fromP1 // cells taken from packet 2, incl. trailer
	if subLen >= MaxCells {
		subLen = MaxCells - 1
	}
	st.counts.RemainingByLen[subLen]++

	if ckOK {
		st.counts.MissedByChecksum++
		st.counts.MissedByLen[subLen]++
	}
	if st.cfg.CheckCRC && b.crcAcc == st.crcWant {
		st.counts.MissedByCRC++
		if ckOK {
			st.counts.MissedByBoth++
		}
	}
}

// checksumPasses evaluates the transport checksum of the completed
// splice from the branch's incremental state plus the pinned last cell.
// Runt-packet geometries that invalidate the incremental state fall
// back to materializing the SDU and running the reference verifier.
func (st *pairState) checksumPasses(b *branch) bool {
	if st.slowVerify {
		return tcpip.VerifyPacket(st.materializeSDU(), st.cfg.Opts)
	}
	if st.fmod != 0 {
		acc := st.fmod.Append(b.fpair, st.lastLen, st.pairLast)
		return acc.A%uint16(st.fmod) == 0 && acc.B%uint16(st.fmod) == 0
	}
	// Internet checksum: total sum over pseudo-header + segment (bytes
	// 20..l2 of the splice), which includes the stored field.
	total := onescomp.Add(b.tcpSum, st.sumLast)
	total = onescomp.Add(total, st.pseudo)

	evenField := (st.fieldOff-tcpip.IPv4HeaderLen)%2 == 0
	if !st.cfg.Opts.NoInvert && evenField {
		// Standard inverted checksum at an aligned offset: the packet
		// verifies exactly when the total is a representation of
		// ones-complement zero.
		return onescomp.IsZero(total)
	}

	// Non-inverted or odd-offset fields need the stored value.
	var stored uint16
	if st.cfg.Opts.Placement == tcpip.PlacementHeader {
		cell := st.lastCell
		if len(st.sel) > 0 {
			cell = st.pool[st.sel[0]]
		}
		stored = uint16(cell[36])<<8 | uint16(cell[37])
	} else {
		off := st.fieldOff - (st.n2-1)*atm.PayloadSize
		stored = uint16(st.lastCell[off])<<8 | uint16(st.lastCell[off+1])
	}
	contrib := stored
	if !evenField {
		contrib = onescomp.Swap(stored)
	}
	sumZeroed := onescomp.Sub(total, contrib)
	want := onescomp.Neg(sumZeroed)
	if st.cfg.Opts.NoInvert {
		want = sumZeroed
	}
	return onescomp.Congruent(stored, want)
}

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
// Enumeration chooses a splice's cells slot by slot, and every check a
// leaf makes is affine in the chosen cells: the ones-complement sum
// composes across cells by plain addition (§4.1), the Fletcher pair
// composes with the positional shift B += A·off (§5.2), and the CRC-32
// register is affine over GF(2), so a cell at a slot contributes one
// XOR term from a per-pair table (see crc.SlotContribs).  A depth-first
// walk over a stack of branch states carries the partial values through
// all but the last three slots.  A per-pair suffix table lists every
// choice of cells for those three slots, in the walk's order, with
// their partial values folded, so the leaves under a prefix are one
// contiguous run of the table.  Under each prefix the walk derives one
// target per check, and a leaf is classified by equality tests of its
// entry against them: no per-leaf arithmetic, division or stack push.
// A pair of 7-cell packets walks its 462 candidates under packet 1's
// header cell through 84 distinct three-cell tails.
//
// The walk counts; it never visits what it can count.  Once the slot-0
// cell fails the header battery, every splice below it is caught by the
// header, so the walk adds that subtree's size from a binomial table in
// O(1) instead of visiting its leaves; on the Tables 1–3 corpora 50.1%
// of candidates are caught this way.  A table entry that meets no
// target and holds no identical data is a Remaining splice both checks
// catch, the common case, so its counts come with the table too (by
// substitution length), and the flat loop over a prefix's run does
// work only for the rare leaves that match.  Runt geometries the
// incremental sums cannot express, and pairs whose second packet has
// two cells or fewer, visit each leaf and run the reference verifier
// on the materialized splice instead.
//
// The per-pair precompute costs table lookups and memory compares: a
// cell's CRC-32 slot contributions step from slot to slot through a
// precomputed 48-byte shift operator, four lookups per slot, and the
// equality maps are filled by slice compares, only for the slots the
// walk can give each cell.  With the suffix table the per-pair cost
// (the splice.pair layer of the benchmark) fell from 23.3 to 9.1 µs,
// 25.5 to 10.0 ns per candidate, on the Tables 1–3 corpora (2-vCPU
// Intel Xeon, go1.24); the precompute is now the larger part of it.
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

	// Suffix table: every choice of cells for the last k slots, built
	// on the first prefix that reaches it (buildSuffix).  h = need−k
	// slots are left to the stack walk.
	k, h        int
	tailCells   []suffixEntry // one cell at one tail slot, stride m1+1
	suffix      []suffixEntry
	sufStart    []suffixStart // by the slot-h cell i, at index i−h
	suffixBuilt bool

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

// suffixSlots is how many trailing slots the suffix table covers.  A
// pair of 7-cell packets walks 462 candidates through 84 three-cell
// tails.  Two slots leave more prefix steps, four cost more to build
// than they save: BenchmarkEnumeratorPair's 7-cell TCP pair took 6.9
// and 6.7 µs with them against 5.2 µs, its Fletcher pair 13 and 9.0 µs
// against 6.7 µs.
const suffixSlots = 3

// Bits of suffixEntry.eq.
const (
	eqP1 = 1 << iota // the cells match packet 1's SDU at their slots
	eqP2             // the cells match packet 2's SDU at their slots
)

// suffixEntry folds a run of cells at consecutive tail slots: one cell
// at its slot in tailCells, a whole choice of the last k slots in the
// suffix table.
type suffixEntry struct {
	crc    uint32 // XOR of the cells' crcContrib terms
	key    uint16 // checksum key, see tailKey and checksumTarget
	eq     uint8  // eqP1 | eqP2, AND-ed over the cells
	fromP1 uint8  // cells taken from packet 1
}

// suffixStart locates the suffix-table entries whose slot-h cell is at
// least some pool index i: they run from at to the table's end, and
// byP1[j] of them take j cells from packet 1.
type suffixStart struct {
	at   int
	byP1 [suffixSlots + 1]uint64
}

// enumerate walks every candidate splice: each order-preserving choice
// of need = n2−1 pool cells, in ascending lexicographic order of
// sel[0..need).  A stack walk chooses the first h = need−k slots:
// stack[d] is the branch after d cells are chosen, so a take step
// writes stack[d+1] from stack[d] and backtracking resumes slot d at
// sel[d]+1.  The k = min(3, need−1) last slots come from the suffix
// table, which lists every choice of them in the same order, so the
// leaves under a prefix ending at pool index p are the table's entries
// from sufStart[p+1−h] on, classified in one flat loop (tail).  Runt
// geometries the table cannot express (slowVerify, need ≤ 1) walk to
// full depth and visit each leaf.
//
// The walk does not descend below a slot-0 cell whose header battery
// fails: every leaf under it is caught by the header, and a packet-1
// cell at pool index i heads C(len(pool)−i−1, need−1) of them.  A
// packet-2 cell at slot 0 forces the rest of the selection to packet 2
// too, which is the excluded identity, so the walk ends there.  A pool
// too large for the binomial table (over 62 cells, far past any walk
// that finishes) walks every prefix.
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
	st.k, st.suffixBuilt = 0, false
	if !st.slowVerify && need >= 2 {
		st.k = min(suffixSlots, need-1)
	}
	st.h = need - st.k
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
		if d == 0 {
			if i >= st.m1 {
				return
			}
			if prune && !st.headerOK[i] {
				c := binomial[n-i-1][need-1]
				st.counts.Total += c
				st.counts.CaughtByHeader += c
				i++
				continue
			}
		}
		st.sel[d] = i
		st.extend(&st.stack[d], &st.stack[d+1], i, d)
		i++
		if d+1 < st.h {
			d++
		} else if st.k == 0 {
			st.leaf(&st.stack[need])
		} else {
			st.tail(&st.stack[st.h])
		}
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

// tailKey returns pool cell i's checksum key at tail slot s.  The ones-
// complement sum is position-free, so it is the cell's sum.  Fletcher's
// B term colours each byte by its distance from the end (§5.2), so it
// is the cell's pair shifted past the slots after s and the pinned last
// cell, packed as A<<8 | B.
func (st *pairState) tailKey(i, s int) uint16 {
	if st.fmod == 0 {
		return st.sum48[i]
	}
	p := st.fmod.ShiftedBy(st.pair48[i], (st.n2-2-s)*atm.PayloadSize+st.lastLen)
	return p.A<<8 | p.B
}

// addKeys composes two checksum keys: ones-complement addition, or for
// Fletcher lane-wise addition mod 255 or 256 of reduced values.
func (st *pairState) addKeys(x, y uint16) uint16 {
	if st.fmod == 0 {
		return onescomp.Add(x, y)
	}
	m := uint16(st.fmod)
	a, b := x>>8+y>>8, x&0xFF+y&0xFF
	if a >= m {
		a -= m
	}
	if b >= m {
		b -= m
	}
	return a<<8 | b
}

// buildSuffix fills the suffix table: every choice of cells for the
// tail slots h … need−1 in ascending lexicographic order.  Slot h+j
// holds one of the pool indices h+j … h+j+m1, the same slotRange bounds
// the precompute filled, and tailCells holds each such (cell, slot)
// folded once.
func (st *pairState) buildSuffix() {
	w := st.m1 + 1
	st.tailCells = grow(st.tailCells, st.k*w)
	for j := range st.k {
		s := st.h + j
		for i := s; i < s+w; i++ {
			c := suffixEntry{key: st.tailKey(i, s)}
			if st.cfg.CheckCRC {
				c.crc = uint32(st.crcContrib[i*st.crcSlots+s])
			}
			if st.eq1[i*st.n2+s] {
				c.eq |= eqP1
			}
			if st.eq2[i*st.n2+s] {
				c.eq |= eqP2
			}
			if i < st.m1 {
				c.fromP1 = 1
			}
			st.tailCells[j*w+i-s] = c
		}
	}
	st.sufStart = grow(st.sufStart, w)
	st.suffix = st.suffix[:0]
	st.fillSuffix(0, st.h, suffixEntry{eq: eqP1 | eqP2})
	var byP1 [suffixSlots + 1]uint64
	end := len(st.suffix)
	for x := w - 1; x >= 0; x-- {
		for _, e := range st.suffix[st.sufStart[x].at:end] {
			byP1[e.fromP1]++
		}
		st.sufStart[x].byP1 = byP1
		end = st.sufStart[x].at
	}
	st.suffixBuilt = true
}

// fillSuffix appends every completion of the partial tail e, whose
// next slot is h+j and whose next cell is at least lo.
func (st *pairState) fillSuffix(j, lo int, e suffixEntry) {
	s := st.h + j
	row := j*(st.m1+1) - s // tailCells[row+i] is cell i at slot s
	for i := lo; i <= s+st.m1; i++ {
		if j == 0 {
			st.sufStart[i-s].at = len(st.suffix)
		}
		c := st.tailCells[row+i]
		t := suffixEntry{
			crc:    e.crc ^ c.crc,
			key:    st.addKeys(e.key, c.key),
			eq:     e.eq & c.eq,
			fromP1: e.fromP1 + c.fromP1,
		}
		if j+1 < st.k {
			st.fillSuffix(j+1, i+1, t)
			continue
		}
		if st.fmod == 0 {
			t.key = onescomp.Normalize(t.key)
		}
		st.suffix = append(st.suffix, t)
	}
}

// checksumTarget returns the key a tail under prefix b must carry for
// the splice to pass the transport checksum.  Every check is affine in
// the chosen cells, so it is an equality between the tail's key and a
// value of the prefix.
//
// Fletcher passes when the whole pair is (0, 0): the tail's key must be
// the negation of the prefix, shifted past the tail, appended to the
// pinned last cell.  The Internet checksum passes when the total sum,
// pseudo-header included, hits a residue r mod 0xFFFF that depends on
// the stored field alone: 0 for the inverted checksum at an even
// offset, and otherwise a function of the field's value, which the
// slot-0 cell (in the prefix, as h ≥ 1) or the pinned last cell holds.
func (st *pairState) checksumTarget(b *branch) uint16 {
	if m := st.fmod; m != 0 {
		q := m.Append(b.fpair, st.k*atm.PayloadSize+st.lastLen, st.pairLast)
		neg := func(x uint16) uint16 {
			if x == 0 {
				return 0
			}
			return uint16(m) - x
		}
		return neg(q.A)<<8 | neg(q.B)
	}
	total := onescomp.Add(onescomp.Add(b.tcpSum, st.sumLast), st.pseudo)
	evenField := (st.fieldOff-tcpip.IPv4HeaderLen)%2 == 0
	var r uint16
	if st.cfg.Opts.NoInvert || !evenField {
		// The field stores ^(sum without it) when inverted and that sum
		// itself when not, so the total must be stored+c or c−stored,
		// where c is the field's contribution: stored, or stored
		// byte-swapped at an odd offset.
		cell, off := st.lastCell, st.fieldOff-(st.n2-1)*atm.PayloadSize
		if st.cfg.Opts.Placement == tcpip.PlacementHeader {
			cell, off = st.pool[st.sel[0]], st.fieldOff
		}
		stored := uint16(cell[off])<<8 | uint16(cell[off+1])
		c := stored
		if !evenField {
			c = onescomp.Swap(stored)
		}
		if st.cfg.Opts.NoInvert {
			r = onescomp.Add(stored, c)
		} else {
			r = onescomp.Sub(c, stored)
		}
	}
	return onescomp.Normalize(onescomp.Sub(r, total))
}

// tail classifies every leaf under the prefix b: the suffix-table
// entries whose first cell follows the prefix's last.  Each check is
// one equality against a per-prefix target, and an entry that meets no
// target is a Remaining splice both checks catch, so the loop skips it:
// the entries' counts by bucket come precomputed with sufStart.
func (st *pairState) tail(b *branch) {
	if !st.suffixBuilt {
		st.buildSuffix()
	}
	start := &st.sufStart[st.sel[st.h-1]+1-st.h]
	ents := st.suffix[start.at:]
	c := &st.counts
	c.Total += uint64(len(ents))
	if !st.headerOK[st.sel[0]] {
		c.CaughtByHeader += uint64(len(ents))
		return
	}
	want := st.checksumTarget(b)
	// With the CRC off every entry's crc is 0 and the target ^0.
	crcWant := ^uint32(0)
	if st.cfg.CheckCRC {
		crcWant = uint32(st.crcWant ^ b.crcAcc)
	}
	// An entry is identical data when its eq bits meet the prefix's:
	// packet 2 throughout, or packet 1 throughout with the last cell.
	var eqMask uint8
	if b.eq2 {
		eqMask |= eqP2
	}
	if b.eq1 && st.lastEq1 {
		eqMask |= eqP1
	}
	rem := start.byP1
	var miss [suffixSlots + 1]uint64
	for _, e := range ents {
		if e.key != want && e.crc != crcWant && e.eq&eqMask == 0 {
			continue
		}
		ck := e.key == want
		if e.eq&eqMask != 0 {
			c.Identical++
			if ck {
				c.IdenticalPassedChecksum++
			} else {
				c.IdenticalFailedChecksum++
			}
			rem[e.fromP1]--
			continue
		}
		if ck {
			miss[e.fromP1]++
		}
		if e.crc == crcWant {
			c.MissedByCRC++
			if ck {
				c.MissedByBoth++
			}
		}
	}
	for j := range st.k + 1 {
		subLen := min(st.n2-b.fromP1-j, MaxCells-1) // packet-2 cells, incl. trailer
		c.Remaining += rem[j]
		c.RemainingByLen[subLen] += rem[j]
		c.MissedByChecksum += miss[j]
		c.MissedByLen[subLen] += miss[j]
	}
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

// leaf classifies one complete splice of a geometry the suffix table
// does not cover: the transport checksum runs the reference verifier
// over the materialized SDU.
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

	ckOK := tcpip.VerifyPacket(st.materializeSDU(), st.cfg.Opts)

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
	subLen := min(st.n2-b.fromP1, MaxCells-1) // cells taken from packet 2, incl. trailer
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

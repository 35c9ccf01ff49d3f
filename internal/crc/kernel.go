package crc

import (
	"fmt"
	"sync"
	"time"
)

// Kernel racing: every Table carries one of four interchangeable bulk
// engines — the byte-at-a-time scalar loop (the oracle), slicing-by-8,
// the table-free chorba fold and the wide-word nguyen recurrence.  New
// differentially verifies each candidate against the scalar engine on
// a pinned vector set and then races the verified ones on bulk input,
// so every consumer of a Table (splice enumeration, sim.Collect,
// netsim trials) gets the fastest correct kernel with zero call-site
// changes.  Selection is cached per Params.  Table.SetKernel pins one
// verified engine on one table, for the differential tests;
// BenchmarkKernels compares the engines on the same hardware.

// kernelID names one bulk engine.  The zero value is slicing-by-8, the
// pre-kernel-layer default, so a zero Table behaves as before.
type kernelID uint8

const (
	kernelSlicing8 kernelID = iota
	kernelScalar
	kernelChorba
	kernelNguyen
	numKernels
)

var kernelNames = [numKernels]string{"slicing8", "scalar", "chorba", "nguyen"}

func kernelByName(name string) (kernelID, bool) {
	for id, n := range kernelNames {
		if n == name {
			return kernelID(id), true
		}
	}
	return 0, false
}

// Kernel returns the name of the bulk engine this table dispatches to.
func (t *Table) Kernel() string { return kernelNames[t.kern] }

// Kernels returns the kernels available for this table's
// parameterization: always scalar and slicing8, plus chorba and nguyen
// when a sparse multiple of the generator is catalogued.
func (t *Table) Kernels() []string {
	out := []string{}
	for _, k := range t.availableKernels() {
		out = append(out, kernelNames[k])
	}
	return out
}

func (t *Table) availableKernels() []kernelID {
	ks := []kernelID{kernelSlicing8, kernelScalar}
	if t.sp != nil {
		ks = append(ks, kernelChorba, kernelNguyen)
	}
	return ks
}

// SetKernel forces the table onto the named kernel after differentially
// verifying it against the scalar engine on the pinned vectors; "auto"
// re-runs verification and racing.  It errors on unknown names, on
// kernels the parameterization does not support, and on verification
// mismatch.  Reconfigure before sharing the table across goroutines:
// the kernel field itself is written unsynchronized.
func (t *Table) SetKernel(name string) error {
	if name == "auto" || name == "" {
		t.kern = t.selectKernel()
		return nil
	}
	k, ok := kernelByName(name)
	if !ok {
		return fmt.Errorf("crc: unknown kernel %q (known: %v)", name, kernelNames)
	}
	if (k == kernelChorba || k == kernelNguyen) && t.sp == nil {
		return fmt.Errorf("crc: kernel %q unavailable for %s (no sparse multiple catalogued)", name, t.params.Name)
	}
	if err := t.VerifyKernel(name); err != nil {
		return err
	}
	t.kern = k
	return nil
}

// VerifyKernel differentially checks the named kernel against the
// scalar oracle on the pinned vector set (all 8 alignments of the bulk
// loop, lengths from 0 through 64 KiB including the fold-reach
// boundaries, two register states) and returns the first mismatch.
func (t *Table) VerifyKernel(name string) error {
	k, ok := kernelByName(name)
	if !ok {
		return fmt.Errorf("crc: unknown kernel %q", name)
	}
	return t.verifyKernel(k)
}

// kernelUpdate advances a raw register over data with a specific
// kernel.  The chorba and nguyen engines hand inputs below their
// minimum reach to the slicing path, which in turn hands sub-word
// tails to the scalar loop — the dispatch every length from 0 up must
// survive (see TestKernelShortInputs).
func (t *Table) kernelUpdate(k kernelID, reg uint64, data []byte) uint64 {
	switch k {
	case kernelScalar:
		return t.updateScalar(reg, data)
	case kernelChorba:
		if len(data) >= t.sp.bulkMin {
			return t.chorba(reg, data)
		}
	case kernelNguyen:
		if len(data) >= t.sp.bulkMin {
			return t.nguyen(reg, data)
		}
	}
	if len(data) >= 16 {
		return t.updateSlicing(reg, data)
	}
	return t.updateScalar(reg, data)
}

// ---------------------------------------------------------------------
// Pinned verification vectors.

// pinnedBuf is 64 KiB + 64 of fixed splitmix64 output: every
// verification vector and the racing input are slices of it, so the
// oracle comparison is reproducible across runs and machines.
var pinnedBuf = sync.OnceValue(func() []byte {
	b := make([]byte, 64<<10+64)
	s := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(b); i += 8 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
})

// pinnedLengths covers the dispatch seams: every sub-word tail 0–9,
// the scalar/slicing boundary at 16, packet-ish sizes, the fold
// kernels' minimum-reach boundary plus the word/byte stage hand-off
// inside them, and full 64 KiB bulk.
func (t *Table) pinnedLengths() []int {
	ls := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 255, 256, 1500}
	if t.sp != nil {
		ls = append(ls,
			t.sp.bulkMin-1, t.sp.bulkMin, t.sp.bulkMin+7, t.sp.bulkMin+8,
			t.sp.bulkMin+15, t.sp.bulkMin+16, t.sp.bulkMin+21, t.sp.bulkMin+64)
	}
	ls = append(ls, 4096, 64<<10)
	return ls
}

func (t *Table) verifyKernel(k kernelID) error {
	buf := pinnedBuf()
	regs := [2]uint64{t.initReg(), t.updateScalar(t.initReg(), buf[:17])}
	for i, n := range t.pinnedLengths() {
		off := i & 7 // walk the bulk loop through all 8 alignments
		data := buf[off : off+n]
		for _, reg := range regs {
			want := t.updateScalar(reg, data)
			if got := t.kernelUpdate(k, reg, data); got != want {
				return fmt.Errorf("crc: kernel %s diverges from scalar oracle on %s (len=%d align=%d reg=%#x: got %#x want %#x)",
					kernelNames[k], t.params.Name, n, off, reg, got, want)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Selection: verify, then race.

// selCache memoizes auto-selection per Params so table-heavy callers
// (tests, the effective-bits polynomial sweeps) race each
// parameterization at most once per process.
var selCache sync.Map // Params -> kernelID

// raceSink keeps the racing loop's checksums live.
var raceSink uint64

func (t *Table) selectKernel() kernelID {
	if t.sp == nil {
		// Without a sparse multiple the only candidates are scalar and
		// slicing-by-8; slicing dominates on bulk, and racing hundreds
		// of custom-polynomial tables would cost more than it returns.
		return kernelSlicing8
	}
	if k, ok := selCache.Load(t.params); ok {
		return k.(kernelID)
	}
	var verified []kernelID
	for _, k := range t.availableKernels() {
		if t.verifyKernel(k) == nil {
			verified = append(verified, k)
		}
	}
	best := t.raceKernels(verified)
	selCache.Store(t.params, best)
	return best
}

// raceKernels times each verified candidate on the pinned 64 KiB bulk
// buffer and returns the fastest.  Rounds are interleaved across the
// candidates — each round times every kernel once, and a candidate's
// score is its minimum over nine rounds — so a transient stall (this
// is tuned for noisy shared-CPU containers) penalizes whoever it hits
// rather than whoever ran last.  Earlier candidates win ties, so the
// slicing default survives a dead heat.
func (t *Table) raceKernels(cands []kernelID) kernelID {
	if len(cands) == 0 {
		return kernelScalar
	}
	buf := pinnedBuf()[:64<<10]
	reg := t.initReg()
	minT := make([]time.Duration, len(cands))
	for i, k := range cands {
		minT[i] = time.Duration(1 << 62)
		raceSink ^= t.kernelUpdate(k, reg, buf) // warm pools and caches
	}
	for round := 0; round < 9; round++ {
		for i, k := range cands {
			start := time.Now()
			raceSink ^= t.kernelUpdate(k, reg, buf)
			if d := time.Since(start); d < minT[i] {
				minT[i] = d
			}
		}
	}
	best := 0
	for i := range cands {
		if minT[i] < minT[best] {
			best = i
		}
	}
	return cands[best]
}

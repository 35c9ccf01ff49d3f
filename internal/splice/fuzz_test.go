package splice

import (
	"testing"

	"realsum/internal/atm"
	"realsum/internal/tcpip"
)

// FuzzEnumerateMatchesBruteForce fuzzes the incremental splice engine
// against the materializing reference implementation across payload
// contents, sizes (runts included) and every checksum configuration.
// This is the deepest invariant in the repository: the O(cells)
// incremental classification must agree exactly with the O(bytes)
// reference on every one of the C(2n−2, n−1) candidates.
func FuzzEnumerateMatchesBruteForce(f *testing.F) {
	f.Add([]byte("some payload for packet one"), []byte("and some for packet two!"), uint8(0))
	f.Add(make([]byte, 96), make([]byte, 96), uint8(1))
	f.Add([]byte{0, 0, 0, 1}, []byte{0xFF, 0xFF}, uint8(2))
	f.Add(make([]byte, 150), make([]byte, 7), uint8(5))
	f.Fuzz(func(t *testing.T, pay1, pay2 []byte, cfgSel uint8) {
		// Bound sizes so the brute force stays fast: ≤ 7 cells each, so
		// a pair reaches the Tables 1–3 geometry, where the stack walk
		// chooses three slots and the suffix table the last three.
		const maxPay = 260
		if len(pay1) > maxPay {
			pay1 = pay1[:maxPay]
		}
		if len(pay2) > maxPay {
			pay2 = pay2[:maxPay]
		}
		if len(pay1) == 0 || len(pay2) == 0 {
			return
		}
		cfgs := allConfigs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		flow := tcpip.NewLoopbackFlow(cfg.Opts)
		p1 := flow.NextPacket(nil, pay1)
		p2 := flow.NextPacket(nil, pay2)
		got := EnumeratePair(p1, p2, cfg)
		want := refEnumerate(p1, p2, cfg)
		if got != want {
			t.Fatalf("cfg %+v len1=%d len2=%d:\n got %+v\nwant %+v",
				cfg.Opts, len(pay1), len(pay2), got, want)
		}
	})
}

// FuzzEqAtMatchesByteLoop holds eqAt's slice compares to the byte loop
// refEqAt.  orig is the cell copied to slot s of an SDU of its own
// length, with one byte of the slot optionally damaged; that length,
// the splice's SDU length l2 and the checksum field each sit at a
// fuzzed distance from the slot's start, so both SDUs can end inside,
// before or after the slot and the field can straddle either slot edge.
func FuzzEqAtMatchesByteLoop(f *testing.F) {
	ends := []int8{-48, -1, 0, 1, 46, 47, 48, 49, 100}
	for _, field := range []int8{-1, 0, 46, 47} {
		for _, dOrig := range ends {
			for _, dL2 := range ends {
				f.Add([]byte("cell bytes"), uint8(3), dOrig, dL2, field, uint8(0), uint8(0))
			}
		}
		// Damage on each field byte and on the bytes beside the field.
		for at := int(field) - 1; at <= int(field)+2; at++ {
			if at >= 0 && at < atm.PayloadSize {
				f.Add([]byte{7}, uint8(1), int8(48), int8(48), field, uint8(at), uint8(1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, pattern []byte, slot uint8, dOrig, dL2, dField int8, damageAt, flip uint8) {
		s := int(slot % 8)
		base := s * atm.PayloadSize
		cell := make([]byte, atm.PayloadSize)
		for j := range cell {
			if len(pattern) > 0 {
				cell[j] = pattern[j%len(pattern)]
			}
		}
		orig := make([]byte, max(0, base+int(dOrig)))
		for j := range orig {
			orig[j] = byte(j * 29)
		}
		copy(orig[min(base, len(orig)):], cell)
		if off := base + int(damageAt)%atm.PayloadSize; off < len(orig) {
			orig[off] ^= flip
		}
		st := &pairState{l2: max(0, base+int(dL2)), fieldOff: base + int(dField)}
		got := st.eqAt(orig, cell, s)
		if want := refEqAt(orig, cell, s, st.l2, st.fieldOff); got != want {
			t.Fatalf("slot %d len(orig)=%d l2=%d fieldOff=%d damage %#x at %d: eqAt %v, byte loop %v",
				s, len(orig), st.l2, st.fieldOff, flip, damageAt, got, want)
		}
	})
}

package gf2poly

import "testing"

// fuzzGenerator builds a generator of degree 1..64 from fuzz input: the
// x^width term plus the width low bits of poly, so x-divisible
// generators (even poly) and pure powers of x (poly 0) occur too.
func fuzzGenerator(poly uint64, width uint8) (Poly, uint8) {
	width = 1 + width%64
	if width < 64 {
		poly &= 1<<width - 1
	}
	return FromCRC(poly, width), width
}

// FuzzXOrderMatchesScan holds the baby-step giant-step XOrder to the
// one-step scan at every width 1..64 and limits up to 2^18.  Whenever
// an order e is found it also checks the two boundary limits: e itself
// (the order equals the limit) and e−1 (the order is limit+1).
func FuzzXOrderMatchesScan(f *testing.F) {
	for _, seed := range []struct {
		poly  uint64
		width uint8
		limit uint32
	}{
		{0b0011, 4, 0},                    // limit 0
		{0b0011, 4, 1},                    // limit 1
		{0b0011, 4, 15},                   // x^4+x+1: order 15 = limit
		{0b0011, 4, 14},                   // order = limit+1
		{0b0011, 4, 16},                   // perfect square above the order
		{1, 9, 9},                         // x^9+1: order 9 = 3², the last giant window's edge
		{1, 16, 16},                       // x^16+1: order 16 = 4²
		{1, 16, 15},                       //   … at limit+1
		{0x1021, 16, 1 << 16},             // CCITT: order 32767, limit a perfect square
		{0x1021, 16, 32766},               //   … order = limit+1
		{1, 64, 64},                       // x^64+1: order 64 at width 64
		{0x42F0E1EBA9EA3693, 64, 1 << 18}, // CRC-64/ECMA: order beyond the limit
		{0b0110, 4, 100},                  // g(0) = 0: x is not invertible
		{0, 7, 100},                       // g = x^7
		{1, 1, 5},                         // g = x+1: order 1
	} {
		f.Add(seed.poly, seed.width-1, seed.limit)
	}
	f.Fuzz(func(t *testing.T, poly uint64, width uint8, limit uint32) {
		g, w := fuzzGenerator(poly, width)
		lim := uint64(limit % (1<<18 + 1))
		want := xOrderScan(g, lim)
		if got := XOrder(g, lim); got != want {
			t.Fatalf("w=%d g=%v limit=%d: XOrder=%d, scan=%d", w, g, lim, got, want)
		}
		if want == 0 {
			return
		}
		if got := XOrder(g, want); got != want {
			t.Fatalf("w=%d g=%v: XOrder at limit = order %d gave %d", w, g, want, got)
		}
		if got := XOrder(g, want-1); got != 0 {
			t.Fatalf("w=%d g=%v: XOrder at limit = order−1 = %d gave %d, want 0", w, g, want-1, got)
		}
	})
}

// FuzzWeight3MatchesPairWalk holds the linear-time A3 to the O(n²)
// pair walk at every width 1..64 and message lengths up to 512 bits,
// x^s·h generators and pure powers of x included.
func FuzzWeight3MatchesPairWalk(f *testing.F) {
	for _, seed := range []struct {
		poly  uint64
		width uint8
		n     uint16
	}{
		{0x21, 6, 512},      // CRC-6/NR
		{0x621, 11, 512},    // CRC-11/NR
		{0x21 << 2, 8, 300}, // x^2·h
		{0, 8, 100},         // g = x^8
		{0, 1, 50},          // g = x
		{1, 1, 50},          // g = x+1
		{0b0110, 4, 3},      // x·(x^3+x+1) at the shortest length with a triple
		{0x04C11DB7, 32, 512},
		{0x21, 6, 0},
		{0x21, 6, 2},
	} {
		f.Add(seed.poly, seed.width-1, seed.n)
	}
	f.Fuzz(func(t *testing.T, poly uint64, width uint8, n uint16) {
		g, w := fuzzGenerator(poly, width)
		nBits := int(n % 513)
		if got, want := UndetectedWeight3(g, nBits), weight3PairWalk(g, nBits); got != want {
			t.Fatalf("w=%d g=%v n=%d: UndetectedWeight3=%d, pair walk=%d", w, g, nBits, got, want)
		}
	})
}

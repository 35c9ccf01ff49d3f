package onescomp

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAddKnownValues(t *testing.T) {
	tests := []struct {
		a, b, want uint16
	}{
		{0x0000, 0x0000, 0x0000},
		{0x0001, 0x0002, 0x0003},
		{0xFFFF, 0x0000, 0xFFFF},
		{0xFFFF, 0xFFFF, 0xFFFF}, // -0 + -0 = -0
		{0xFFFF, 0x0001, 0x0001}, // end-around carry: 0x10000 -> 0x0001
		{0x8000, 0x8000, 0x0001},
		{0xF000, 0x1000, 0x0001},
		{0x1234, 0xEDCB, 0xFFFF}, // x + ~x = -0
		{0xAAAA, 0x5555, 0xFFFF},
		{0xFFFE, 0x0003, 0x0002},
	}
	for _, tc := range tests {
		if got := Add(tc.a, tc.b); got != tc.want {
			t.Errorf("Add(%#04x, %#04x) = %#04x, want %#04x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint16) bool { return Add(a, b) == Add(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAssociative(t *testing.T) {
	f := func(a, b, c uint16) bool { return Add(Add(a, b), c) == Add(a, Add(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddNegIsZero(t *testing.T) {
	f := func(a uint16) bool { return IsZero(Add(a, Neg(a))) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubInvertsAdd(t *testing.T) {
	// a + b - b is congruent to a for all a, b.
	f := func(a, b uint16) bool { return Congruent(Sub(Add(a, b), b), a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.IntN(64)
		var acc uint64
		var ref uint16
		for j := 0; j < n; j++ {
			w := uint16(rng.Uint32())
			acc += uint64(w)
			ref = Add(ref, w)
		}
		// Fold and repeated Add may differ only in zero representation
		// when the true sum is zero.
		if got := Fold(acc); !Congruent(got, ref) {
			t.Fatalf("Fold(%d words) = %#04x, want congruent to %#04x", n, got, ref)
		}
	}
}

func TestFoldLargeAccumulator(t *testing.T) {
	// 2^32 copies of 0xFFFF: sum is congruent to -0.
	acc := uint64(0xFFFF) * (1 << 32)
	if got := Fold(acc); !IsZero(got) {
		t.Errorf("Fold(max accumulator) = %#04x, want a zero representation", got)
	}
}

func TestSumBytesKnown(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want uint16
	}{
		{"empty", nil, 0x0000},
		{"one byte", []byte{0xAB}, 0xAB00},
		{"one word", []byte{0x12, 0x34}, 0x1234},
		{"two words", []byte{0x12, 0x34, 0x56, 0x78}, 0x68AC},
		{"carry", []byte{0xFF, 0xFF, 0x00, 0x01}, 0x0001},
		{"odd tail", []byte{0x12, 0x34, 0x56}, 0x1234 + 0x5600},
		{"rfc1071 example", []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 0xddf2},
	}
	for _, tc := range tests {
		if got := SumBytes(tc.data); got != tc.want {
			t.Errorf("%s: SumBytes = %#04x, want %#04x", tc.name, got, tc.want)
		}
	}
}

func TestSumBytesAllZeroAndAllOnes(t *testing.T) {
	zeros := make([]byte, 48)
	if got := SumBytes(zeros); got != 0 {
		t.Errorf("SumBytes(48 zero bytes) = %#04x, want 0", got)
	}
	ones := make([]byte, 48)
	for i := range ones {
		ones[i] = 0xFF
	}
	// 24 words of 0xFFFF sum (ones-complement) to 0xFFFF: the two data
	// patterns are congruent — the weakness §2 describes.
	if got := SumBytes(ones); !IsZero(got) {
		t.Errorf("SumBytes(48 0xFF bytes) = %#04x, want a zero representation", got)
	}
	if !Congruent(SumBytes(zeros), SumBytes(ones)) {
		t.Error("all-zero and all-one cells should have congruent sums")
	}
}

func TestSumBytesSplitsAnywhereEven(t *testing.T) {
	// Partial sums over word-aligned fragments add up to the whole sum.
	rng := rand.New(rand.NewPCG(3, 4))
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	whole := SumBytes(data)
	for cut := 0; cut <= len(data); cut += 2 {
		if got := Add(SumBytes(data[:cut]), SumBytes(data[cut:])); !Congruent(got, whole) {
			t.Fatalf("split at %d: %#04x, want %#04x", cut, got, whole)
		}
	}
}

func TestSwapLemma(t *testing.T) {
	// RFC 1071 byte-order independence: summing the byte-swapped data
	// gives the byte-swapped sum (for even-length data).
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 200; trial++ {
		n := 2 * (1 + rng.IntN(100))
		data := make([]byte, n)
		swapped := make([]byte, n)
		for i := 0; i < n; i += 2 {
			data[i], data[i+1] = byte(rng.Uint32()), byte(rng.Uint32())
			swapped[i], swapped[i+1] = data[i+1], data[i]
		}
		if got, want := SumBytes(swapped), Swap(SumBytes(data)); !Congruent(got, want) {
			t.Fatalf("swapped sum = %#04x, want %#04x", got, want)
		}
	}
}

func TestUpdateWordRFC1624(t *testing.T) {
	// Worked example from RFC 1624 §4: old checksum field 0xDD2F,
	// m = 0x5555 changes to m' = 0x3285; new field is 0x0000... the RFC's
	// point is that the naive RFC 1141 equation gives 0xFFFF instead.
	if got := UpdateWord(0xDD2F, 0x5555, 0x3285); got != 0x0000 {
		t.Errorf("UpdateWord RFC1624 example = %#04x, want 0x0000", got)
	}
}

func TestUpdateWordMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	data := make([]byte, 64)
	for trial := 0; trial < 500; trial++ {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		field := Neg(SumBytes(data)) // checksum as stored in a header
		pos := 2 * rng.IntN(len(data)/2)
		from := uint16(data[pos])<<8 | uint16(data[pos+1])
		to := uint16(rng.Uint32())
		data[pos], data[pos+1] = byte(to>>8), byte(to)
		want := Neg(SumBytes(data))
		got := UpdateWord(field, from, to)
		if !Congruent(got, want) {
			t.Fatalf("UpdateWord = %#04x, recompute = %#04x", got, want)
		}
		field = got
	}
}

func TestUpdateSumMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	data := make([]byte, 48)
	for trial := 0; trial < 500; trial++ {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		sum := SumBytes(data)
		pos := 2 * rng.IntN(len(data)/2)
		from := uint16(data[pos])<<8 | uint16(data[pos+1])
		to := uint16(rng.Uint32())
		data[pos], data[pos+1] = byte(to>>8), byte(to)
		if got, want := UpdateSum(sum, from, to), SumBytes(data); !Congruent(got, want) {
			t.Fatalf("UpdateSum = %#04x, recompute = %#04x", got, want)
		}
	}
}

func TestNormalizeAndCongruent(t *testing.T) {
	if Normalize(0xFFFF) != 0 || Normalize(0) != 0 || Normalize(0x1234) != 0x1234 {
		t.Error("Normalize misbehaves")
	}
	if !Congruent(0xFFFF, 0x0000) {
		t.Error("0xFFFF and 0x0000 must be congruent")
	}
	if Congruent(0x0001, 0x0002) {
		t.Error("distinct nonzero values must not be congruent")
	}
}

func TestSixteenBitBurstWeakness(t *testing.T) {
	// §2: the only undetectable 16-bit burst error swaps an aligned
	// 0x0000 word with 0xFFFF.  Verify both that this is undetected and
	// that every other single-word substitution is detected.
	base := []byte{0x12, 0x34, 0x00, 0x00, 0xAB, 0xCD}
	sum := SumBytes(base)
	modified := []byte{0x12, 0x34, 0xFF, 0xFF, 0xAB, 0xCD}
	if !Congruent(SumBytes(modified), sum) {
		t.Error("0x0000 -> 0xFFFF substitution should be undetectable")
	}
	for w := 1; w < 0xFFFF; w++ { // every other replacement of that word
		modified[2], modified[3] = byte(w>>8), byte(w)
		if Congruent(SumBytes(modified), sum) {
			t.Fatalf("substitution 0x0000 -> %#04x undetected", w)
		}
	}
}

func BenchmarkSumBytes1500(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		SumBytes(data)
	}
}

func TestAddMatchesResidueModel(t *testing.T) {
	// Ones-complement 16-bit addition is exactly addition in ℤ/65535
	// once both zero representations are identified: for all a, b,
	// Normalize(Add(a,b)) ≡ (a' + b') mod 65535, where x' = x mod 65535
	// maps 0xFFFF onto 0.  Exhaustive over a stratified sample plus the
	// full boundary set.
	model := func(a, b uint16) uint16 {
		s := (uint32(a)%65535 + uint32(b)%65535) % 65535
		return uint16(s)
	}
	check := func(a, b uint16) {
		if got, want := Normalize(Add(a, b)), model(a, b); got != want {
			t.Fatalf("Add(%#04x, %#04x): %#04x, model %#04x", a, b, got, want)
		}
	}
	boundary := []uint16{0, 1, 2, 0x7FFF, 0x8000, 0x8001, 0xFFFD, 0xFFFE, 0xFFFF}
	for _, a := range boundary {
		for _, b := range boundary {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewPCG(77, 77))
	for i := 0; i < 200000; i++ {
		check(uint16(rng.Uint32()), uint16(rng.Uint32()))
	}
	// And every b for a few fixed a — exhaustive slices of the table.
	for _, a := range []uint16{0, 0x1234, 0xFFFF} {
		for b := 0; b <= 0xFFFF; b++ {
			check(a, uint16(b))
		}
	}
}

// UpdateWord implements the corrected incremental-update equation of
// RFC 1624: given the checksum field value old (the complemented sum, as
// stored in a header) and a 16-bit word of the covered data changing from
// from to to, it returns the new checksum field value.
//
//	HC' = ~(~HC + ~m + m')
func UpdateWord(old, from, to uint16) uint16 {
	return Neg(Add(Add(Neg(old), Neg(from)), to))
}

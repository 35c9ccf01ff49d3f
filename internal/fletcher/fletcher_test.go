package fletcher

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// refSum is a transparent reference implementation: each byte weighted by
// its position from the end (last byte weight 1), reduced mod m.
func refSum(m Mod, data []byte) Pair {
	var a, b uint64
	n := uint64(len(data))
	for i, d := range data {
		a += uint64(d)
		b += (n - uint64(i)) * uint64(d)
	}
	return Pair{A: uint16(a % uint64(m)), B: uint16(b % uint64(m))}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, m := range []Mod{Mod255, Mod256} {
		for trial := 0; trial < 200; trial++ {
			data := randBytes(rng, rng.IntN(2000))
			if got, want := m.Sum(data), refSum(m, data); got != want {
				t.Fatalf("mod %d, len %d: Sum = %+v, want %+v", m, len(data), got, want)
			}
		}
	}
}

func TestSumLongBufferReduction(t *testing.T) {
	// Exercise the periodic reduction path with a buffer much longer than
	// reduceEvery, worst-case bytes.
	data := make([]byte, 3*reduceEvery+17)
	for i := range data {
		data[i] = 0xFF
	}
	for _, m := range []Mod{Mod255, Mod256} {
		if got, want := m.Sum(data), refSum(m, data); got != want {
			t.Errorf("mod %d long buffer: Sum = %+v, want %+v", m, got, want)
		}
	}
}

func TestKnownVectors(t *testing.T) {
	// "abcde" under classic Fletcher-16 (mod 255, running-sum form):
	// A = 0x1F8 mod 255 = 0xF0? Compute transparently: a,b,c,d,e =
	// 97+98+99+100+101 = 495; 495 mod 255 = 240 (0xF0).
	// B = 5*97+4*98+3*99+2*100+1*101 = 485+392+297+200+101 = 1475;
	// 1475 mod 255 = 200 (0xC8).  Matches the widely published
	// Fletcher16("abcde") = 0xC8F0.
	p := Mod255.Sum([]byte("abcde"))
	if p.A != 0xF0 || p.B != 0xC8 {
		t.Errorf(`Mod255.Sum("abcde") = %+v, want A=0xF0 B=0xC8`, p)
	}
	if p.Checksum16() != 0xC8F0 {
		t.Errorf("Checksum16 = %#04x, want 0xC8F0", p.Checksum16())
	}
	p = Mod255.Sum([]byte("abcdef"))
	if p.Checksum16() != 0x2057 {
		t.Errorf(`Fletcher16("abcdef") = %#04x, want 0x2057`, p.Checksum16())
	}
	p = Mod255.Sum([]byte("abcdefgh"))
	if p.Checksum16() != 0x0627 {
		t.Errorf(`Fletcher16("abcdefgh") = %#04x, want 0x0627`, p.Checksum16())
	}
}

func TestTwoZerosMod255(t *testing.T) {
	// §5.5: under mod 255, bytes 0x00 and 0xFF are interchangeable.
	zeros := make([]byte, 48)
	mixed := make([]byte, 48)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = 0xFF
		}
	}
	if Mod255.Sum(zeros) != (Pair{}) {
		t.Error("all-zero cell should sum to (0,0) mod 255")
	}
	if Mod255.Sum(mixed) != (Pair{}) {
		t.Error("mixed 0x00/0xFF cell should sum to (0,0) mod 255 — the PBM pathology")
	}
	if Mod256.Sum(mixed) == (Pair{}) {
		t.Error("mod 256 should distinguish 0xFF from 0x00")
	}
}

func TestShiftedByComposition(t *testing.T) {
	// A cell's standalone pair recombines at its true offset: slice a
	// packet into 48-byte cells and rebuild the packet sum per §5.2.
	rng := rand.New(rand.NewPCG(2, 2))
	for _, m := range []Mod{Mod255, Mod256} {
		for trial := 0; trial < 100; trial++ {
			n := 48 * (1 + rng.IntN(8))
			data := randBytes(rng, n)
			want := m.Sum(data)
			var acc Pair
			for off := 0; off < n; off += 48 {
				cell := m.Sum(data[off : off+48])
				shifted := m.ShiftedBy(cell, n-off-48)
				acc = Pair{A: m.add(acc.A, shifted.A), B: m.add(acc.B, shifted.B)}
			}
			if acc != want {
				t.Fatalf("mod %d: recomposed %+v, want %+v", m, acc, want)
			}
		}
	}
}

func TestAppendMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, m := range []Mod{Mod255, Mod256} {
		for trial := 0; trial < 200; trial++ {
			n := rng.IntN(400)
			data := randBytes(rng, n)
			cut := 0
			if n > 0 {
				cut = rng.IntN(n + 1)
			}
			got := m.Append(m.Sum(data[:cut]), n-cut, m.Sum(data[cut:]))
			if want := m.Sum(data); got != want {
				t.Fatalf("mod %d split %d/%d: %+v, want %+v", m, cut, n, got, want)
			}
		}
	}
}

func TestCheckBytesSumToZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, m := range []Mod{Mod255, Mod256} {
		for trial := 0; trial < 300; trial++ {
			n := 4 + rng.IntN(300)
			data := randBytes(rng, n)
			// Place the check field at a random position with at least
			// one byte available for x,y.
			pos := rng.IntN(n - 1)
			data[pos], data[pos+1] = 0, 0
			trailing := n - pos - 2
			x, y := m.CheckBytes(data, trailing)
			data[pos], data[pos+1] = x, y
			if !m.Verify(data) {
				t.Fatalf("mod %d, n=%d, pos=%d: packet with check bytes %#02x%02x does not verify (sum %+v)",
					m, n, pos, x, y, m.Sum(data))
			}
		}
	}
}

func TestCheckBytesDetectCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	for _, m := range []Mod{Mod255, Mod256} {
		data := randBytes(rng, 128)
		data[10], data[11] = 0, 0
		x, y := m.CheckBytes(data, len(data)-12)
		data[10], data[11] = x, y
		detected := 0
		const trials = 500
		for i := 0; i < trials; i++ {
			pos := rng.IntN(len(data))
			orig := data[pos]
			delta := byte(1 + rng.IntN(255))
			data[pos] = orig + delta
			if !m.Verify(data) {
				detected++
			}
			data[pos] = orig
		}
		// Mod-256 Fletcher detects all single-byte errors; mod-255 can
		// miss a 0x00<->0xFF flip.
		if m == Mod256 && detected != trials {
			t.Errorf("mod 256 missed %d single-byte corruptions", trials-detected)
		}
		if m == Mod255 && detected < trials*95/100 {
			t.Errorf("mod 255 detected only %d/%d single-byte corruptions", detected, trials)
		}
	}
}

func TestPositionSensitivity(t *testing.T) {
	// Unlike the Internet checksum, Fletcher changes when word-aligned
	// cells are reordered — the property §5.2 exploits.
	a := []byte("the quick brown fox jumps over the lazy dog....")
	b := []byte("pack my box with five dozen liquor jugs........")
	ab := append(append([]byte{}, a...), b...)
	ba := append(append([]byte{}, b...), a...)
	for _, m := range []Mod{Mod255, Mod256} {
		if m.Sum(ab) == m.Sum(ba) {
			t.Errorf("mod %d: reordering cells did not change the Fletcher sum", m)
		}
	}
}

func TestSum32MatchesReference(t *testing.T) {
	ref := func(data []byte) Pair32 {
		const mod = 65535
		var a, b uint64
		// words with trailing pad
		var words []uint64
		for i := 0; i+2 <= len(data); i += 2 {
			words = append(words, uint64(data[i])<<8|uint64(data[i+1]))
		}
		if len(data)%2 == 1 {
			words = append(words, uint64(data[len(data)-1])<<8)
		}
		n := uint64(len(words))
		for i, w := range words {
			a += w
			b += (n - uint64(i)) * w
		}
		return Pair32{A: uint32(a % mod), B: uint32(b % mod)}
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 200; trial++ {
		data := randBytes(rng, rng.IntN(3000))
		if got, want := Sum32(data), ref(data); got != want {
			t.Fatalf("len %d: Sum32 = %+v, want %+v", len(data), got, want)
		}
	}
}

func TestSum32Checksum32Packing(t *testing.T) {
	p := Pair32{A: 0x1234, B: 0xABCD}
	if p.Checksum32() != 0xABCD1234 {
		t.Errorf("Checksum32 = %#08x", p.Checksum32())
	}
}

func TestQuickAppendAssociativity(t *testing.T) {
	for _, m := range []Mod{Mod255, Mod256} {
		f := func(a, b, c []byte) bool {
			l := m.Append(m.Append(m.Sum(a), len(b), m.Sum(b)), len(c), m.Sum(c))
			r := m.Append(m.Sum(a), len(b)+len(c), m.Append(m.Sum(b), len(c), m.Sum(c)))
			return l == r
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("mod %d: %v", m, err)
		}
	}
}

func BenchmarkSumMod255_1500(b *testing.B) { benchSum(b, Mod255, 1500) }
func BenchmarkSumMod256_1500(b *testing.B) { benchSum(b, Mod256, 1500) }

func benchSum(b *testing.B, m Mod, n int) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		m.Sum(data)
	}
}

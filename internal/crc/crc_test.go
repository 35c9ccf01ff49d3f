package crc

import (
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

var checkInput = []byte("123456789")

func TestCatalogCheckValues(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if got := New(p).Checksum(checkInput); got != p.Check {
				t.Errorf("table Checksum(%q) = %#x, want %#x", checkInput, got, p.Check)
			}
			if got := p.BitwiseChecksum(checkInput); got != p.Check {
				t.Errorf("bitwise Checksum(%q) = %#x, want %#x", checkInput, got, p.Check)
			}
		})
	}
}

func TestTableMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, p := range Catalog() {
		tab := New(p)
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, rng.IntN(200))
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			if got, want := tab.Checksum(data), p.BitwiseChecksum(data); got != want {
				t.Fatalf("%s len %d: table %#x != bitwise %#x", p.Name, len(data), got, want)
			}
		}
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	tab := New(CRC32)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.IntN(2000))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if got, want := uint32(tab.Checksum(data)), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("len %d: ours %#08x, stdlib %#08x", len(data), got, want)
		}
	}
}

// TestUpdateMatchesOneShot resumes a published CRC through the raw
// register API (RawFromCRC, RawUpdate, RawCRC), as netsim's receiver
// resumes the AAL5 register from a trailer CRC, and checks it against
// the one-shot sum.
func TestUpdateMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, p := range Catalog() {
		tab := New(p)
		data := make([]byte, 300)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		whole := tab.Checksum(data)
		for _, cut := range []int{0, 1, 7, 150, 299, 300} {
			got := tab.RawCRC(tab.RawUpdate(tab.RawFromCRC(tab.Checksum(data[:cut])), data[cut:]))
			if got != whole {
				t.Errorf("%s split %d: resumed CRC = %#x, want %#x", p.Name, cut, got, whole)
			}
		}
	}
}

func TestMakeParamsArbitraryWidths(t *testing.T) {
	// Exercise odd widths end-to-end: table must agree with bitwise for
	// widths that are not byte multiples.
	rng := rand.New(rand.NewPCG(7, 7))
	widths := []struct {
		w    uint8
		poly uint64
	}{
		{3, 0x3}, {5, 0x15}, {7, 0x65}, {10, 0x233}, {12, 0x80F},
		{13, 0x1CF5}, {21, 0x102899}, {31, 0x04C11DB7 >> 1}, {63, 0x42F0E1EBA9EA3693 >> 1},
	}
	for _, wp := range widths {
		p := MakeParams(wp.w, wp.poly)
		tab := New(p)
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, rng.IntN(100))
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			if got, want := tab.Checksum(data), p.BitwiseChecksum(data); got != want {
				t.Fatalf("width %d: table %#x != bitwise %#x", wp.w, got, want)
			}
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, p := range []Params{
		{Name: "w0", Width: 0, Poly: 1},
		{Name: "w65", Width: 65, Poly: 1},
		{Name: "mixed", Width: 8, Poly: 7, RefIn: true, RefOut: false},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%s) should panic", p.Name)
				}
			}()
			New(p)
		}()
	}
}

func TestReflect(t *testing.T) {
	tests := []struct {
		v    uint64
		n    uint8
		want uint64
	}{
		{0b1, 1, 0b1},
		{0b10, 2, 0b01},
		{0xF0, 8, 0x0F},
		{0x04C11DB7, 32, 0xEDB88320}, // the famous reflected CRC-32 poly
		{0x1, 64, 1 << 63},
	}
	for _, tc := range tests {
		if got := Reflect(tc.v, tc.n); got != tc.want {
			t.Errorf("Reflect(%#x, %d) = %#x, want %#x", tc.v, tc.n, got, tc.want)
		}
	}
}

func BenchmarkCRC32_1500(b *testing.B) {
	tab := New(CRC32)
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		tab.Checksum(data)
	}
}

func BenchmarkCRC10_1500(b *testing.B) {
	tab := New(CRC10)
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		tab.Checksum(data)
	}
}

// bitwiseUpdate advances an unreflected, right-aligned register over
// data one bit at a time — the transparent reference implementation the
// table-driven path is validated against.  It works for any width ≥ 1.
func (p Params) bitwiseUpdate(reg uint64, data []byte) uint64 {
	mask := p.Mask()
	for _, b := range data {
		if p.RefIn {
			b = byte(Reflect(uint64(b), 8))
		}
		for bit := 7; bit >= 0; bit-- {
			in := uint64(b>>uint(bit)) & 1
			hi := (reg >> (p.Width - 1)) & 1
			reg = (reg << 1) & mask
			if hi^in == 1 {
				reg ^= p.Poly
			}
		}
	}
	return reg
}

// finalize converts a raw unreflected register value into the published
// CRC value (output reflection then final XOR).
func (p Params) finalize(reg uint64) uint64 {
	if p.RefOut {
		reg = Reflect(reg, p.Width)
	}
	return (reg ^ p.XorOut) & p.Mask()
}

// BitwiseChecksum computes the CRC of data using the bitwise reference
// algorithm.  Use Table for anything performance-sensitive.
func (p Params) BitwiseChecksum(data []byte) uint64 {
	return p.finalize(p.bitwiseUpdate(p.Init&p.Mask(), data))
}

// Catalog lists every catalogued algorithm, for table-driven tests.
func Catalog() []Params {
	return []Params{
		CRC32, CRC32C, CRC10, CRC16, CRC16CCITT, CRC16XMODEM, CRC8HEC, CRC8, CRC64,
		CRC24A, CRC24B, CRC24C, CRC11NR, CRC6NR, CRC32K, CRC32K2,
	}
}

// MakeParams builds an unreflected, zero-preset CRC of arbitrary width
// over the given polynomial, for tests that sweep every width.
func MakeParams(width uint8, poly uint64) Params {
	return Params{
		Name:  "CRC-custom",
		Width: width,
		Poly:  poly,
	}
}

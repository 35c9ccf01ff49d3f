package errmodel

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"realsum/internal/crc"
	"realsum/internal/fletcher"
)

func testData(n int) []byte {
	d := make([]byte, n)
	rng := rand.New(rand.NewPCG(99, 99))
	for i := range d {
		d[i] = byte(rng.Uint32())
	}
	return d
}

// damaged returns a copy of data that m has corrupted in place.
func damaged(m Model, rng *rand.Rand, data []byte) []byte {
	out := bytes.Clone(data)
	m.CorruptInPlace(rng, out)
	return out
}

// TestModelsDoNotMutateOriginal checks that Measure damages only its
// own copy, and that every model changes the bytes it is given.
func TestModelsDoNotMutateOriginal(t *testing.T) {
	data := testData(64)
	ref := bytes.Clone(data)
	rng := rand.New(rand.NewPCG(1, 1))
	for _, m := range []Model{
		Burst{Bits: 9}, BitFlips{K: 3}, Garbage{Bytes: 8},
		SolidBurst{Bits: 9}, Reorder{Unit: 8}, Misinsert{Unit: 8},
	} {
		Measure(TCPCheck(), m, data, 3, 1)
		if !bytes.Equal(data, ref) {
			t.Fatalf("Measure with %s mutated its input", m.Name())
		}
		if out := damaged(m, rng, data); bytes.Equal(out, data) {
			t.Fatalf("%s left the data unchanged", m.Name())
		}
	}
}

func TestBurstSpan(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	data := make([]byte, 32)
	for trial := 0; trial < 200; trial++ {
		bits := 1 + rng.IntN(64)
		out := damaged(Burst{Bits: bits}, rng, data)
		first, last := -1, -1
		for i := 0; i < len(out)*8; i++ {
			if out[i/8]&(0x80>>uint(i%8)) != 0 {
				if first == -1 {
					first = i
				}
				last = i
			}
		}
		if first == -1 {
			t.Fatal("burst flipped nothing")
		}
		if last-first+1 > bits {
			t.Fatalf("burst of %d bits spans %d", bits, last-first+1)
		}
		if bits > 1 && last-first+1 != bits {
			t.Fatalf("burst endpoints not pinned: span %d, want %d", last-first+1, bits)
		}
	}
}

func TestBitFlipsCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	data := make([]byte, 32)
	for _, k := range []int{1, 2, 7, 33, 70} {
		out := damaged(BitFlips{K: k}, rng, data)
		flipped := 0
		for _, b := range out {
			for ; b != 0; b &= b - 1 {
				flipped++
			}
		}
		if flipped != k {
			t.Errorf("K=%d flipped %d bits", k, flipped)
		}
	}
}

func TestGarbageStaysInSpan(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	data := testData(64)
	for trial := 0; trial < 100; trial++ {
		out := damaged(Garbage{Bytes: 4}, rng, data)
		diffs := []int{}
		for i := range out {
			if out[i] != data[i] {
				diffs = append(diffs, i)
			}
		}
		if len(diffs) == 0 {
			t.Fatal("garbage changed nothing")
		}
		if diffs[len(diffs)-1]-diffs[0] >= 4 {
			t.Fatalf("garbage span too wide: %v", diffs)
		}
	}
}

func TestTCPCatchesShortBursts(t *testing.T) {
	// §2: the TCP checksum catches any burst of 15 bits or less.
	data := testData(256)
	for bits := 1; bits <= 15; bits++ {
		if missed := Measure(TCPCheck(), Burst{Bits: bits}, data, 2000, uint64(bits)); missed != 0 {
			t.Errorf("TCP checksum missed %d bursts of %d bits", missed, bits)
		}
	}
}

func TestCRCCatchesBurstsUpToWidth(t *testing.T) {
	data := testData(256)
	for _, p := range []crc.Params{crc.CRC10, crc.CRC16CCITT, crc.CRC32} {
		for _, bits := range []int{1, 2, int(p.Width) / 2, int(p.Width)} {
			if bits < 1 {
				continue
			}
			if missed := Measure(CRCCheck(p), Burst{Bits: bits}, data, 1000, uint64(bits)); missed != 0 {
				t.Errorf("%s missed %d bursts of %d bits", p.Name, missed, bits)
			}
		}
	}
}

func TestGarbageMissRateScalesWithWidth(t *testing.T) {
	// Random substitutions on uniform data are missed at ≈2^-w: CRC-10
	// should show misses in 100k trials (expected ≈98), CRC-32 none.
	data := testData(512)
	missed10 := Measure(CRCCheck(crc.CRC10), Garbage{Bytes: 16}, data, 100_000, 5)
	if missed10 < 40 || missed10 > 200 {
		t.Errorf("CRC-10 missed %d of 100k garbage substitutions, want ≈98", missed10)
	}
	missed32 := Measure(CRCCheck(crc.CRC32), Garbage{Bytes: 16}, data, 100_000, 6)
	if missed32 != 0 {
		t.Errorf("CRC-32 missed %d garbage substitutions", missed32)
	}
	// 16-bit checks: expected ≈1.5 per 100k.
	missedTCP := Measure(TCPCheck(), Garbage{Bytes: 16}, data, 100_000, 7)
	if missedTCP > 15 {
		t.Errorf("TCP missed %d of 100k garbage substitutions, want ≈1.5", missedTCP)
	}
}

func TestFletcherChecksAreChecks(t *testing.T) {
	data := testData(128)
	for _, m := range []fletcher.Mod{fletcher.Mod255, fletcher.Mod256} {
		c := FletcherCheck(m)
		if c.Digest(data) == 0 && c.Digest(data[:64]) == 0 {
			t.Errorf("%s digest degenerate", c.Name)
		}
		if missed := Measure(c, Burst{Bits: 5}, data, 1000, 8); missed != 0 {
			t.Errorf("%s missed %d 5-bit bursts", c.Name, missed)
		}
	}
}

func TestMeasureDeterministic(t *testing.T) {
	data := testData(128)
	a := Measure(TCPCheck(), BitFlips{K: 4}, data, 5000, 42)
	b := Measure(TCPCheck(), BitFlips{K: 4}, data, 5000, 42)
	if a != b {
		t.Errorf("Measure not deterministic: %d vs %d", a, b)
	}
}

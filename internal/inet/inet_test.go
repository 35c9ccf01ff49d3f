package inet

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"realsum/internal/onescomp"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestChecksumKnownVectors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want uint16
	}{
		{"empty", nil, 0xFFFF},
		{"zeros", make([]byte, 20), 0xFFFF},
		// Classic IPv4 header example (Wikipedia/RFC 1071 lineage): the
		// header with its checksum field zeroed sums so that the
		// complement is 0xB861.
		{"ipv4 header", []byte{
			0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
			0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
		}, 0xB861},
	}
	for _, tc := range tests {
		if got := Checksum(tc.data); got != tc.want {
			t.Errorf("%s: Checksum = %#04x, want %#04x", tc.name, got, tc.want)
		}
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 300; trial++ {
		n := 4 + 2*rng.IntN(500)
		data := randBytes(rng, n)
		data[0], data[1] = 0, 0
		ck := Checksum(data)
		data[0], data[1] = byte(ck>>8), byte(ck)
		if !Verify(data) {
			t.Fatalf("packet with stored checksum %#04x does not verify", ck)
		}
		// A single-byte corruption elsewhere must be detected unless the
		// corruption is a 0x00<->0xFF flip paired inside a zero word —
		// single-byte changes are always caught.
		pos := 2 + rng.IntN(n-2)
		orig := data[pos]
		data[pos] ^= 1 + byte(rng.IntN(255))
		if data[pos] != orig && Verify(data) {
			t.Fatalf("single-byte corruption at %d undetected", pos)
		}
	}
}

func TestPartialAppendMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(300)
		data := randBytes(rng, n)
		cut := rng.IntN(n + 1)
		got := NewPartial(data[:cut]).Append(NewPartial(data[cut:]))
		want := NewPartial(data)
		if got.Len != want.Len || !onescomp.Congruent(got.Sum, want.Sum) {
			t.Fatalf("split at %d of %d: got %+v, want %+v", cut, n, got, want)
		}
	}
}

func TestPartialAppendAssociative(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 300; trial++ {
		a := NewPartial(randBytes(rng, rng.IntN(64)))
		b := NewPartial(randBytes(rng, rng.IntN(64)))
		c := NewPartial(randBytes(rng, rng.IntN(64)))
		l := a.Append(b).Append(c)
		r := a.Append(b.Append(c))
		if l.Len != r.Len || !onescomp.Congruent(l.Sum, r.Sum) {
			t.Fatalf("associativity: %+v vs %+v", l, r)
		}
	}
}

func TestPositionBlindness(t *testing.T) {
	// The defining weakness (§2): reordering word-aligned cells does not
	// change the checksum.
	rng := rand.New(rand.NewPCG(5, 5))
	cells := make([][]byte, 6)
	for i := range cells {
		cells[i] = randBytes(rng, 48)
	}
	var fwd, rev []byte
	for i := range cells {
		fwd = append(fwd, cells[i]...)
		rev = append(rev, cells[len(cells)-1-i]...)
	}
	if !onescomp.Congruent(Sum(fwd), Sum(rev)) {
		t.Error("word-aligned reordering changed the Internet checksum")
	}
}

func TestUpdateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	data := randBytes(rng, 96)
	sum := Sum(data)
	for trial := 0; trial < 200; trial++ {
		pos := 2 * rng.IntN(len(data)/2)
		from := uint16(data[pos])<<8 | uint16(data[pos+1])
		to := uint16(rng.Uint32())
		data[pos], data[pos+1] = byte(to>>8), byte(to)
		sum = Update(sum, from, to)
		if !onescomp.Congruent(sum, Sum(data)) {
			t.Fatalf("incremental update diverged at trial %d", trial)
		}
	}
}

func TestChecksumZeroNeverTransmitted(t *testing.T) {
	// A quirky consequence of ones-complement: Checksum never returns
	// 0x0000 unless the sum was 0xFFFF; data summing to 0x0000 (e.g. the
	// empty packet) produces 0xFFFF.  UDP exploits this to reserve 0 for
	// "no checksum".  Exhaustive over all 2-byte packets.
	buf := []byte{0, 0}
	for w := 0; w <= 0xFFFF; w++ {
		buf[0], buf[1] = byte(w>>8), byte(w)
		ck := Checksum(buf)
		if w != 0xFFFF && ck == 0 {
			t.Fatalf("word %#04x produced checksum 0x0000", w)
		}
	}
}

func TestQuickSumSplitEquivalence(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := append(append([]byte{}, a...), b...)
		got := NewPartial(a).Append(NewPartial(b))
		return onescomp.Congruent(got.Sum, Sum(whole)) && got.Len == len(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

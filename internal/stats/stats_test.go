package stats

import (
	"math"
	"testing"
)

func TestEffectiveBits(t *testing.T) {
	if got := EffectiveBits(1.0 / 1024); math.Abs(got-10) > 1e-9 {
		t.Errorf("EffectiveBits(2^-10) = %v", got)
	}
	if got := EffectiveBits(1.0 / 65536); math.Abs(got-16) > 1e-9 {
		t.Errorf("EffectiveBits(2^-16) = %v", got)
	}
	if !math.IsInf(EffectiveBits(0), 1) {
		t.Error("EffectiveBits(0) should be +Inf")
	}
	// The paper's headline: a miss rate of ~0.1% is a ~10-bit check.
	if got := EffectiveBits(0.001); got < 9.5 || got > 10.5 {
		t.Errorf("EffectiveBits(0.001) = %v, want ≈10", got)
	}
}

func TestUniformMissRate(t *testing.T) {
	if UniformMissRate(16) != 1.0/65536 {
		t.Error("UniformMissRate(16)")
	}
	if UniformMissRate(10) != 1.0/1024 {
		t.Error("UniformMissRate(10)")
	}
}

func TestShannonEntropy(t *testing.T) {
	// Uniform over 256 symbols: exactly 8 bits.
	uniform := make([]uint64, 256)
	for i := range uniform {
		uniform[i] = 7
	}
	if got := ShannonEntropy(uniform); math.Abs(got-8) > 1e-12 {
		t.Errorf("uniform entropy = %v", got)
	}
	// Point mass: zero bits.
	point := make([]uint64, 256)
	point[42] = 100
	if got := ShannonEntropy(point); got != 0 {
		t.Errorf("point-mass entropy = %v", got)
	}
	// Two equal symbols: one bit.
	two := []uint64{5, 5}
	if got := ShannonEntropy(two); math.Abs(got-1) > 1e-12 {
		t.Errorf("two-symbol entropy = %v", got)
	}
	// Degenerate inputs.
	if ShannonEntropy(nil) != 0 || ShannonEntropy([]uint64{0, 0}) != 0 {
		t.Error("empty histogram entropy should be 0")
	}
}

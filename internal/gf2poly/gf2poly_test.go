package gf2poly

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func randPoly(rng *rand.Rand, maxDeg int) Poly {
	d := rng.IntN(maxDeg + 1)
	p := Poly{}
	for i := 0; i <= d; i++ {
		if rng.Uint32()&1 == 1 {
			p = p.Add(Monomial(i))
		}
	}
	return p
}

func TestBasics(t *testing.T) {
	zero := Poly{}
	if !zero.IsZero() || zero.Degree() != -1 || zero.Weight() != 0 {
		t.Error("zero polynomial misbehaves")
	}
	one := New(1)
	if one.Degree() != 0 || one.Weight() != 1 || !one.Bit(0) {
		t.Error("constant 1 misbehaves")
	}
	x := Monomial(1)
	if x.Degree() != 1 || x.String() != "x" {
		t.Errorf("x misbehaves: deg %d, %q", x.Degree(), x)
	}
	big := Monomial(200)
	if big.Degree() != 200 || !big.Bit(200) || big.Bit(199) {
		t.Error("high-degree monomial misbehaves")
	}
	if New(0b111).String() != "x^2+x+1" {
		t.Errorf("String: %q", New(0b111))
	}
	if (Poly{}).String() != "0" {
		t.Error("zero String")
	}
}

func TestFromCRC(t *testing.T) {
	// CRC-32: degree must be 32, 15 terms.
	g := FromCRC(0x04C11DB7, 32)
	if g.Degree() != 32 {
		t.Errorf("CRC-32 generator degree %d", g.Degree())
	}
	if g.Weight() != 15 {
		t.Errorf("CRC-32 generator weight %d, want 15", g.Weight())
	}
	// Width-64 generator must carry the implicit x^64.
	g64 := FromCRC(0x42F0E1EBA9EA3693, 64)
	if g64.Degree() != 64 {
		t.Errorf("CRC-64 generator degree %d", g64.Degree())
	}
}

func TestAddSelfInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		p, q := New(a), New(b)
		return p.Add(q).Add(q).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAgainstCarrylessReference(t *testing.T) {
	// For small polynomials compare against a O(n²) bit-by-bit product.
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 200; trial++ {
		a, b := uint64(rng.Uint32()), uint64(rng.Uint32())
		var want Poly
		for i := 0; i < 32; i++ {
			if a>>uint(i)&1 == 1 {
				want = want.Add(New(b).Shl(i))
			}
		}
		if got := New(a).Mul(New(b)); !got.Equal(want) {
			t.Fatalf("Mul(%#x, %#x) = %v, want %v", a, b, got, want)
		}
	}
}

func TestMulCommutesAndDistributes(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 100; trial++ {
		a, b, c := randPoly(rng, 100), randPoly(rng, 100), randPoly(rng, 100)
		if !a.Mul(b).Equal(b.Mul(a)) {
			t.Fatal("Mul not commutative")
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			t.Fatal("Mul not distributive")
		}
	}
}

func TestDivModInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 200; trial++ {
		p := randPoly(rng, 150)
		q := randPoly(rng, 70)
		if q.IsZero() {
			continue
		}
		quo, rem := p.DivMod(q)
		if rem.Degree() >= q.Degree() {
			t.Fatalf("remainder degree %d >= divisor degree %d", rem.Degree(), q.Degree())
		}
		if !quo.Mul(q).Add(rem).Equal(p) {
			t.Fatalf("quo*q + rem != p")
		}
	}
}

func TestDivModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DivMod by zero should panic")
		}
	}()
	New(5).DivMod(Poly{})
}

func TestGCD(t *testing.T) {
	// gcd(x^2+x, x) = x
	if g := GCD(New(0b110), New(0b10)); !g.Equal(New(0b10)) {
		t.Errorf("gcd = %v", g)
	}
	// gcd of coprime irreducibles is 1: (x+1) and (x^2+x+1).
	if g := GCD(New(0b11), New(0b111)); g.Degree() != 0 {
		t.Errorf("coprime gcd = %v", g)
	}
	// gcd(p*r, q*r) is divisible by r.
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 50; trial++ {
		p, q, r := randPoly(rng, 40), randPoly(rng, 40), randPoly(rng, 20)
		if r.IsZero() {
			continue
		}
		g := GCD(p.Mul(r), q.Mul(r))
		if !p.Mul(r).IsZero() && !g.IsZero() && !g.DivisibleBy(r) {
			t.Fatalf("gcd %v not divisible by common factor %v", g, r)
		}
	}
}

func TestExpMod(t *testing.T) {
	m := FromCRC(0x07, 8) // x^8+x^2+x+1
	// x^e mod m computed two ways.
	for _, e := range []uint64{0, 1, 7, 8, 63, 200} {
		want := Monomial(int(e)).Mod(m)
		if got := ExpMod(e, m); !got.Equal(want) {
			t.Errorf("ExpMod(%d) = %v, want %v", e, got, want)
		}
	}
}

func TestDetectsOddErrorsCatalog(t *testing.T) {
	// The §2 claims, computed: CRC-16/ANSI and CRC-16/CCITT contain
	// (x+1); CRC-32 (802.3) does NOT — the paper's "detects all odd
	// numbers of errors" is too strong for CRC-32.
	tests := []struct {
		name  string
		poly  uint64
		width uint8
		want  bool
	}{
		{"CRC-16/ANSI", 0x8005, 16, true},
		{"CRC-16/CCITT", 0x1021, 16, true},
		{"CRC-32", 0x04C11DB7, 32, false},
		// Castagnoli designed CRC-32C as (x+1)·p(x) with p primitive of
		// degree 31, precisely to recover odd-error detection.
		{"CRC-32C", 0x1EDC6F41, 32, true},
		{"CRC-10/ATM", 0x233, 10, true},
		// x^8+x^2+x+1 has four terms (even weight), so the HEC generator
		// does contain (x+1) and detects all odd-weight errors.
		{"CRC-8/ATM-HEC", 0x07, 8, true},
	}
	for _, tc := range tests {
		g := FromCRC(tc.poly, tc.width)
		if got := DetectsOddErrors(g); got != tc.want {
			t.Errorf("%s: DetectsOddErrors = %v, want %v", tc.name, got, tc.want)
		}
		// Cross-check via term parity: divisible by x+1 iff even weight.
		if got := g.Weight()%2 == 0; got != tc.want {
			t.Errorf("%s: weight parity disagrees with division", tc.name)
		}
	}
}

func TestIsIrreducible(t *testing.T) {
	irreducible := []Poly{
		New(0b10),       // x
		New(0b11),       // x+1
		New(0b111),      // x^2+x+1
		New(0b1011),     // x^3+x+1
		New(0b10011),    // x^4+x+1
		New(0b100101),   // x^5+x^2+1
		FromCRC(0x5, 3), // x^3+x^2+1
	}
	for _, p := range irreducible {
		if !IsIrreducible(p) {
			t.Errorf("%v should be irreducible", p)
		}
	}
	reducible := []Poly{
		New(0b110),          // x^2+x = x(x+1)
		New(0b101),          // x^2+1 = (x+1)^2
		New(0b1111),         // x^3+x^2+x+1 = (x+1)^3
		FromCRC(0x8005, 16), // CRC-16/ANSI = (x+1)(x^15+x+1)
		FromCRC(0x1021, 16), // CRC-16/CCITT contains (x+1)
		New(1),              // constants are not irreducible
	}
	for _, p := range reducible {
		if IsIrreducible(p) {
			t.Errorf("%v should be reducible", p)
		}
	}
	// The IEEE 802.3 CRC-32 generator is famously primitive — in
	// particular irreducible (which is also why it cannot contain the
	// factor x+1 and cannot detect all odd-weight errors).
	if !IsIrreducible(FromCRC(0x04C11DB7, 32)) {
		t.Error("the CRC-32 generator is irreducible")
	}
	// Products of random irreducibles are reducible.
	if IsIrreducible(New(0b111).Mul(New(0b1011))) {
		t.Error("product of irreducibles reported irreducible")
	}
}

func TestOrderOfX(t *testing.T) {
	// x mod (x+1): x ≡ 1, order 1.
	if got := XOrder(New(0b11), 10); got != 1 {
		t.Errorf("order mod x+1 = %d", got)
	}
	// x^2+x+1 divides x^3+1: order 3.
	if got := XOrder(New(0b111), 10); got != 3 {
		t.Errorf("order mod x^2+x+1 = %d", got)
	}
	// Primitive degree-4: x^4+x+1 has order 15.
	if got := XOrder(New(0b10011), 100); got != 15 {
		t.Errorf("order mod x^4+x+1 = %d", got)
	}
	// Non-invertible (divisible by x).
	if got := XOrder(New(0b110), 100); got != 0 {
		t.Errorf("order of x mod x(x+1) = %d", got)
	}
	// Limit exceeded returns 0.
	if got := XOrder(New(0b10011), 10); got != 0 {
		t.Errorf("limited order = %d", got)
	}
}

// detects2Bit reports whether a CRC with this generator detects every
// 2-bit error whose positions differ by at most maxSpacing: x^d + 1 is
// a multiple of the generator exactly when the order of x modulo it
// divides d, so the order must exceed maxSpacing.
func detects2Bit(generator Poly, maxSpacing uint64) bool {
	return generator.Bit(0) && XOrder(generator, maxSpacing) == 0
}

func TestDetects2BitErrorsClaims(t *testing.T) {
	// §2: CRC-32 detects all 2-bit errors less than 2048 bits apart.
	// (Its true x-order is far larger; confirming the stated window is
	// cheap.)
	g32 := FromCRC(0x04C11DB7, 32)
	if !detects2Bit(g32, 2048) {
		t.Error("CRC-32 should detect 2-bit errors within 2048 bits")
	}
	// CRC-16/CCITT polynomial x^16+x^12+x^5+1 = (x+1)·primitive15:
	// order is 2^15−1 = 32767, so spacing 32767 is undetectable.
	ccitt := FromCRC(0x1021, 16)
	if !detects2Bit(ccitt, 32766) {
		t.Error("CCITT should detect 2-bit errors within 32766 bits")
	}
	if detects2Bit(ccitt, 32767) {
		t.Error("CCITT cannot detect a 2-bit error spaced exactly 32767")
	}
	if got := XOrder(ccitt, 40000); got != 32767 {
		t.Errorf("CCITT x-order = %d, want 32767", got)
	}
}

func TestFromWordsAndBitAccess(t *testing.T) {
	p := FromWords([]uint64{0, 1}) // x^64
	if p.Degree() != 64 || !p.Bit(64) || p.Bit(0) {
		t.Error("multi-word polynomial misbehaves")
	}
	if p.Bit(-1) || p.Bit(1000) {
		t.Error("out-of-range Bit should be false")
	}
	trimmed := FromWords([]uint64{5, 0, 0})
	if len(trimmed.w) != 1 {
		t.Error("trailing zero words not trimmed")
	}
}

func TestShlAgainstMonomialMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 100; trial++ {
		p := randPoly(rng, 120)
		n := rng.IntN(130)
		if !p.Shl(n).Equal(p.Mul(Monomial(n))) {
			t.Fatalf("Shl(%d) != Mul(x^%d)", n, n)
		}
	}
}

// ExpMod returns x^e mod m via square-and-multiply (e ≥ 0).
func ExpMod(e uint64, m Poly) Poly {
	result := New(1).Mod(m)
	base := Monomial(1).Mod(m)
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, m)
		}
		base = MulMod(base, base, m)
		e >>= 1
	}
	return result
}

// Weight returns the number of nonzero coefficients (terms).
func (p Poly) Weight() int {
	n := 0
	for _, w := range p.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the polynomial in the usual x^i + … form.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var terms []string
	for i := p.Degree(); i >= 0; i-- {
		if !p.Bit(i) {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, "x")
		default:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		}
	}
	return strings.Join(terms, "+")
}

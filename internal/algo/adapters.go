package algo

import (
	"math"

	"realsum/internal/adler"
	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
)

// The built-in registrations, in the display order the tools inherit.
func init() {
	Register(tcpAlgo{})
	Register(fletcherAlgo{m: fletcher.Mod255, name: "f255", space: 255 * 255})
	Register(fletcherAlgo{m: fletcher.Mod256, name: "f256", space: 65536})
	Register(fletcher32Algo{})
	Register(adlerAlgo{})
	for _, p := range []crc.Params{
		crc.CRC32, crc.CRC32C, crc.CRC10, crc.CRC16, crc.CRC16CCITT, crc.CRC8, crc.CRC64,
	} {
		Register(newCRCAlgo(p))
	}
}

// ---------------------------------------------------------------------
// TCP / Internet checksum.

type tcpAlgo struct{}

func (tcpAlgo) Name() string { return "tcp" }
func (tcpAlgo) Width() int   { return 16 }
func (tcpAlgo) New() Digest  { return &tcpDigest{d: inet.New()} }
func (tcpAlgo) Sum(data []byte) uint64 {
	return uint64(inet.Checksum(data))
}

// UniformP reflects the ones-complement double zero: 65535 classes.
func (tcpAlgo) UniformP() float64 { return 1.0 / 65535 }

type tcpDigest struct{ d *inet.Digest }

func (t *tcpDigest) Write(p []byte) (int, error) { return t.d.Write(p) }
func (t *tcpDigest) Sum64() uint64               { return uint64(t.d.Checksum16()) }
func (t *tcpDigest) Reset()                      { t.d.Reset() }

// ---------------------------------------------------------------------
// Fletcher over bytes, mod 255 and mod 256.

type fletcherAlgo struct {
	m     fletcher.Mod
	name  string
	space float64
}

func (f fletcherAlgo) Name() string { return f.name }
func (fletcherAlgo) Width() int     { return 16 }
func (f fletcherAlgo) New() Digest  { return &fletcherDigest{d: fletcher.New(f.m)} }
func (f fletcherAlgo) Sum(data []byte) uint64 {
	return uint64(f.m.Sum(data).Checksum16())
}
func (f fletcherAlgo) UniformP() float64 { return 1.0 / f.space }

type fletcherDigest struct{ d *fletcher.Digest }

func (f *fletcherDigest) Write(p []byte) (int, error) { return f.d.Write(p) }
func (f *fletcherDigest) Sum64() uint64               { return uint64(f.d.Pair().Checksum16()) }
func (f *fletcherDigest) Reset()                      { f.d.Reset() }

// ---------------------------------------------------------------------
// Fletcher-32 over 16-bit words mod 65535.

type fletcher32Algo struct{}

func (fletcher32Algo) Name() string { return "fletcher32" }
func (fletcher32Algo) Width() int   { return 32 }
func (fletcher32Algo) New() Digest  { return &fletcher32Digest{} }
func (fletcher32Algo) Sum(data []byte) uint64 {
	return uint64(fletcher.Sum32(data).Checksum32())
}
func (fletcher32Algo) UniformP() float64 { return 1.0 / (65535.0 * 65535.0) }

// fletcher32Digest streams the 16-bit-word Fletcher sum, carrying a
// pending odd byte across Write boundaries; a trailing odd byte is
// zero-padded on Sum64, matching fletcher.Sum32.
type fletcher32Digest struct {
	a, b    uint64
	n       int // words accumulated since the last reduction
	pending byte
	odd     bool
}

// reduceEvery32 matches fletcher.Sum32's reduction cadence.
const reduceEvery32 = 21845

func (d *fletcher32Digest) Write(p []byte) (int, error) {
	written := len(p)
	if d.odd && len(p) > 0 {
		d.word(uint64(d.pending)<<8 | uint64(p[0]))
		d.odd = false
		p = p[1:]
	}
	for ; len(p) >= 2; p = p[2:] {
		d.word(uint64(p[0])<<8 | uint64(p[1]))
	}
	if len(p) == 1 {
		d.pending, d.odd = p[0], true
	}
	return written, nil
}

func (d *fletcher32Digest) word(w uint64) {
	d.a += w
	d.b += d.a
	if d.n++; d.n == reduceEvery32 {
		d.reduce()
	}
}

func (d *fletcher32Digest) reduce() {
	d.a %= 65535
	d.b %= 65535
	d.n = 0
}

func (d *fletcher32Digest) Sum64() uint64 {
	a, b := d.a, d.b
	if d.odd {
		a += uint64(d.pending) << 8
		b += a
	}
	a %= 65535
	b %= 65535
	return b<<16 | a
}

func (d *fletcher32Digest) Reset() { *d = fletcher32Digest{} }

// ---------------------------------------------------------------------
// Adler-32.

type adlerAlgo struct{}

func (adlerAlgo) Name() string           { return "adler32" }
func (adlerAlgo) Width() int             { return 32 }
func (adlerAlgo) New() Digest            { return &adlerDigest{d: adler.New()} }
func (adlerAlgo) Sum(data []byte) uint64 { return uint64(adler.Checksum(data)) }
func (adlerAlgo) UniformP() float64      { return 1.0 / (1 << 32) }

type adlerDigest struct{ d *adler.Digest }

func (a *adlerDigest) Write(p []byte) (int, error) { return a.d.Write(p) }
func (a *adlerDigest) Sum64() uint64               { return uint64(a.d.Sum32()) }
func (a *adlerDigest) Reset()                      { a.d.Reset() }

// ---------------------------------------------------------------------
// Table-driven CRCs.

type crcAlgo struct {
	t    *crc.Table
	name string
}

// crcNames maps catalog names onto registry keys.
var crcNames = map[string]string{
	"CRC-32":       "crc32",
	"CRC-32C":      "crc32c",
	"CRC-10":       "crc10",
	"CRC-16":       "crc16",
	"CRC-16/CCITT": "crc16-ccitt",
	"CRC-8":        "crc8",
	"CRC-64/XZ":    "crc64",
}

func newCRCAlgo(p crc.Params) crcAlgo {
	name, ok := crcNames[p.Name]
	if !ok {
		name = p.Name
	}
	return crcAlgo{t: crc.New(p), name: name}
}

// NewCRC wraps arbitrary CRC params as an Algorithm under an explicit
// registry key, for callers (the polynomial census) that bring their own
// slate instead of the built-in catalog subset.  The result rides the
// same slicing-by-8 table and zero-alloc Sum path as the built-ins;
// pass it to Register to make it visible to the tools.
func NewCRC(p crc.Params, name string) Algorithm {
	return crcAlgo{t: crc.New(p), name: name}
}

func (c crcAlgo) Name() string           { return c.name }
func (c crcAlgo) Width() int             { return int(c.t.Params().Width) }
func (c crcAlgo) Sum(data []byte) uint64 { return c.t.Checksum(data) }
func (c crcAlgo) New() Digest            { return &crcDigest{d: c.t.NewDigest()} }
func (c crcAlgo) UniformP() float64 {
	// Ldexp avoids the 1<<64 overflow for CRC-64.
	return math.Ldexp(1, -int(c.t.Params().Width))
}

type crcDigest struct{ d *crc.Digest }

func (c *crcDigest) Write(p []byte) (int, error) { return c.d.Write(p) }
func (c *crcDigest) Sum64() uint64               { return c.d.CRC() }
func (c *crcDigest) Reset()                      { c.d.Reset() }

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
func (tcpAlgo) Sum(data []byte) uint64 {
	return uint64(inet.Checksum(data))
}

// UniformP reflects the ones-complement double zero: 65535 classes.
func (tcpAlgo) UniformP() float64 { return 1.0 / 65535 }

// ---------------------------------------------------------------------
// Fletcher over bytes, mod 255 and mod 256.

type fletcherAlgo struct {
	m     fletcher.Mod
	name  string
	space float64
}

func (f fletcherAlgo) Name() string { return f.name }
func (fletcherAlgo) Width() int     { return 16 }
func (f fletcherAlgo) Sum(data []byte) uint64 {
	return uint64(f.m.Sum(data).Checksum16())
}
func (f fletcherAlgo) UniformP() float64 { return 1.0 / f.space }

// ---------------------------------------------------------------------
// Fletcher-32 over 16-bit words mod 65535.

type fletcher32Algo struct{}

func (fletcher32Algo) Name() string { return "fletcher32" }
func (fletcher32Algo) Width() int   { return 32 }
func (fletcher32Algo) Sum(data []byte) uint64 {
	return uint64(fletcher.Sum32(data).Checksum32())
}
func (fletcher32Algo) UniformP() float64 { return 1.0 / (65535.0 * 65535.0) }

// ---------------------------------------------------------------------
// Adler-32.

type adlerAlgo struct{}

func (adlerAlgo) Name() string           { return "adler32" }
func (adlerAlgo) Width() int             { return 32 }
func (adlerAlgo) Sum(data []byte) uint64 { return uint64(adler.Checksum(data)) }
func (adlerAlgo) UniformP() float64      { return 1.0 / (1 << 32) }

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
func (c crcAlgo) UniformP() float64 {
	// Ldexp avoids the 1<<64 overflow for CRC-64.
	return math.Ldexp(1, -int(c.t.Params().Width))
}

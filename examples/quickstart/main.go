// Quickstart: the checksum and CRC toolbox on a buffer of bytes —
// one-shot sums, incremental update, and the partial-sum composition
// the splice analysis (and cmd/cksum's streaming) is built on.
package main

import (
	"fmt"

	"realsum/internal/algo"
	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

func main() {
	data := []byte("Checksum and CRC algorithms have historically been studied " +
		"under the assumption that the data fed to the algorithms was uniformly distributed.")

	// --- The Internet (TCP/IP) checksum -----------------------------
	sum := inet.Sum(data)        // raw ones-complement sum
	field := inet.Checksum(data) // complemented wire-format value
	fmt.Printf("Internet checksum: sum=%#04x field=%#04x\n", sum, field)

	// Partial sums compose: split anywhere, add the pieces (§4.1).
	a, b := inet.NewPartial(data[:77]), inet.NewPartial(data[77:])
	fmt.Printf("composed from two fragments: %#04x (match=%v)\n",
		a.Append(b).Sum, onescomp.Congruent(a.Append(b).Sum, sum))

	// Incremental update after editing two bytes (RFC 1624).
	edited := append([]byte(nil), data...)
	edited[10], edited[11] = 'X', 'Y'
	from := uint16(data[10])<<8 | uint16(data[11])
	to := uint16('X')<<8 | uint16('Y')
	fmt.Printf("incremental update: %#04x (recompute %#04x)\n",
		inet.Update(sum, from, to), inet.Sum(edited))

	// --- Fletcher's checksum, both moduli ---------------------------
	for _, m := range []fletcher.Mod{fletcher.Mod255, fletcher.Mod256} {
		p := m.Sum(data)
		fmt.Printf("Fletcher mod %d: A=%#02x B=%#02x packed=%#04x\n", m, p.A, p.B, p.Checksum16())
	}

	// Fletcher check bytes: make the buffer sum to zero.
	buf := append(append([]byte(nil), data...), 0, 0)
	x, y := fletcher.Mod256.CheckBytes(buf, 0)
	buf[len(buf)-2], buf[len(buf)-1] = x, y
	fmt.Printf("Fletcher-256 check bytes %#02x %#02x verify=%v\n", x, y, fletcher.Mod256.Verify(buf))

	// --- CRCs --------------------------------------------------------
	for _, p := range []crc.Params{crc.CRC32, crc.CRC10, crc.CRC16CCITT, crc.CRC8HEC} {
		t := crc.New(p)
		fmt.Printf("%-12s = %#x\n", p.Name, t.Checksum(data))
	}

	// CRC composition: a CRC is linear over GF(2), so the sum of a train
	// of 50-byte blocks folds from per-block partials computed once.
	s := algo.MustLookup("crc32").Stride(50)
	var parts []uint64
	n := len(data) / 50 * 50
	for off := 0; off < n; off += 50 {
		parts = append(parts, s.Partial(data[off:off+50]))
	}
	composed := s.Sum(s.Tail(s.Fold(s.Start(), parts), data[n:]))
	fmt.Printf("CRC-32 composed from %d blocks: %#08x (one-shot %#08x)\n",
		len(parts), composed, crc.New(crc.CRC32).Checksum(data))
}

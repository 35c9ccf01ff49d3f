package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The decoder is the test oracle for Compress: the round-trip tests and
// FuzzLZRoundTrip hold every compressed stream to it.

// MaxCompressedLen bounds Compress's output for an n-byte input: the
// uvarint header plus worst-case all-literal framing (one control byte
// per 128 literals).  Sizing dst to this up front makes Compress a
// zero-allocation call.
func MaxCompressedLen(n int) int {
	return binary.MaxVarintLen64 + n + (n+maxLitRun-1)/maxLitRun + 1
}

// Decompression errors.  ErrCorrupt covers every malformed-stream case:
// truncated header or token, a distance reaching before the output
// start, or a token stream whose production disagrees with the declared
// length.
var ErrCorrupt = errors.New("lz: corrupt or truncated stream")

// DecompressedLen reads the declared raw length without decoding the
// token stream.
func DecompressedLen(src []byte) (int, error) {
	n, _, err := header(src)
	return n, err
}

// header decodes the uvarint length prefix, returning the declared
// length and the bytes it consumed.
func header(src []byte) (n, used int, err error) {
	v, used := binary.Uvarint(src)
	if used <= 0 || v > 1<<40 {
		return 0, 0, ErrCorrupt
	}
	return int(v), used, nil
}

// Decompress appends the decompressed form of src to dst and returns
// the extended buffer.  On any malformed input it returns dst truncated
// back to its original length and a wrapped ErrCorrupt — it never
// panics, and it never allocates beyond what the declared length and
// the token stream itself can justify: output is grown as produced, and
// production is capped at the declared rawLen, itself at most
// MaxMatch/3 × len(src).
func Decompress(dst, src []byte) ([]byte, error) {
	mark := len(dst)
	rawLen, used, err := header(src)
	if err != nil {
		return dst, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	ts := src[used:]

	// A token stream of s bytes can produce at most ceil(s/3)·MaxMatch
	// bytes; a declared length beyond that cannot be met and is rejected
	// before any growth, so a corrupt header cannot force a huge
	// allocation.
	if maxProduce := (len(ts)/3 + 1) * MaxMatch; rawLen > maxProduce {
		return dst, fmt.Errorf("%w: declared %d bytes exceeds the %d-byte token-stream bound", ErrCorrupt, rawLen, maxProduce)
	}

	var u unwhitener
	p := 0
	for p < len(ts) {
		ctl := ts[p] ^ u.at(p)
		p++
		if ctl < 0x80 { // literal run
			n := int(ctl) + 1
			if n > len(ts)-p || len(dst)-mark+n > rawLen {
				return dst[:mark], fmt.Errorf("%w: literal run of %d bytes", ErrCorrupt, n)
			}
			for j := 0; j < n; j++ {
				dst = append(dst, ts[p+j]^u.at(p+j))
			}
			p += n
			continue
		}
		if len(ts)-p < 2 {
			return dst[:mark], fmt.Errorf("%w: truncated match token", ErrCorrupt)
		}
		length := int(ctl&0x7F) + MinMatch
		dist := 1 + int(ts[p]^u.at(p)) + int(ts[p+1]^u.at(p+1))<<8
		p += 2
		if dist > len(dst)-mark {
			return dst[:mark], fmt.Errorf("%w: distance %d reaches before the stream start", ErrCorrupt, dist)
		}
		if len(dst)-mark+length > rawLen {
			return dst[:mark], fmt.Errorf("%w: match overruns the declared length", ErrCorrupt)
		}
		// Byte-at-a-time forward copy: overlapping (dist < length)
		// matches replicate, the RLE degenerate case included.
		from := len(dst) - dist
		for i := 0; i < length; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	if len(dst)-mark != rawLen {
		return dst[:mark], fmt.Errorf("%w: produced %d of %d declared bytes", ErrCorrupt, len(dst)-mark, rawLen)
	}
	return dst, nil
}

// unwhitener streams the same keystream byte-at-a-time for the
// decompressor, caching the current 8-byte block.
type unwhitener struct {
	block uint64
	key   uint64
	valid bool
}

func (u *unwhitener) at(p int) byte {
	blk := uint64(p >> 3)
	if !u.valid || blk != u.block {
		u.block, u.key, u.valid = blk, pad64(blk), true
	}
	return byte(u.key >> (8 * (p & 7)))
}

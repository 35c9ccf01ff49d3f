// Package lz is a zero-steady-state-allocation streaming LZ77
// compressor — the payload stage behind netsim's compression axis (the
// paper's Table 7 remedy, measured by injection instead of
// distributionally).  Its decompressor lives with the tests, as the
// round-trip oracle.
//
// The matcher is a classic hash-chain over a power-of-two ring: head[h]
// holds the most recent position whose 4-byte prefix hashed to h, and
// prev[pos&ringMask] threads earlier positions of the same bucket.  The
// ring invariant that makes the in-place reuse safe is the standard
// one: an entry prev[p&ringMask] is only overwritten by a position
// p' ≡ p (mod WindowSize), and any such p' lies at least a full window
// beyond p — so every chain step that passes the distance check reads a
// value written for exactly the position it names.  Chain walks are
// capped at maxChain candidates, so compression is O(1) amortized per
// input byte.
//
// A Compressor is built once per engine shard and Reset per file (the
// dist.Windower lifecycle): Reset clears the head table and nothing
// else, Compress appends into a caller-owned buffer, and after the
// buffers have warmed up it does not allocate.
// Compression consumes no RNG and no clock — a pure function of its
// input, so netsim's per-trial seed derivation is untouched.
//
// # Token format
//
// The byte stream is self-contained and self-terminating:
//
//	stream  := uvarint(rawLen) token*
//	token   := litrun | match
//	litrun  := byte(n-1)                 n literal bytes      (n in 1..128, top bit 0)
//	match   := byte(0x80|(len-MinMatch)) lo hi                (len in 4..131)
//
// A match copies len bytes from distance d = 1 + lo + 256·hi back in
// the produced output (d ≤ WindowSize; d < len copies overlap, RLE
// style).  rawLen up front lets the decompressor size its output
// without trusting the token stream, and makes truncation detectable:
// a valid stream produces exactly rawLen bytes and ends on a token
// boundary.
//
// The token bytes (everything after the uvarint header) are XORed with
// a fixed position-keyed keystream — the stand-in for the
// entropy-coding stage of real compressed formats.  Without it the
// matcher's output is itself periodic where the input is: a megabyte of
// zeros encodes as thousands of identical 3-byte match tokens, and that
// repeating pattern recreates exactly the ones-complement cancellations
// the compression stage exists to remove.  Whitening leaves sizes,
// purity and determinism untouched (the pad depends only on byte
// position) but makes the wire image near-uniform, which is the
// property the Table 7 measurement needs.
package lz

import "encoding/binary"

const (
	// WindowBits sizes the match window; distances are at most
	// WindowSize and fit the 2-byte match encoding exactly.
	WindowBits = 16
	// WindowSize is the maximum match distance and the ring modulus.
	WindowSize = 1 << WindowBits

	// MinMatch is the shortest encodable match.  Below it a copy token
	// (3 bytes) cannot beat emitting the bytes literally.
	MinMatch = 4
	// MaxMatch is the longest encodable match (MinMatch + 127).
	MaxMatch = MinMatch + 127

	maxLitRun = 128 // literal-run tokens carry 1..128 bytes

	hashBits = 15
	hashLen  = 1 << hashBits
	ringMask = WindowSize - 1

	// maxChain bounds the candidates examined per position — the O(1)
	// amortized guarantee.  64 is deep enough that the corpus's long
	// zero runs still collapse to back-to-back max-length matches.
	maxChain = 64
)

// hash4 mixes a 4-byte little-endian load into hashBits (Knuth
// multiplicative hashing; the constant is 2654435761, the golden-ratio
// prime for 32 bits).
func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

// pad64 is the whitening keystream: the splitmix64 finalizer over the
// 8-byte block index, so pad bytes are statistically uniform yet a pure
// function of position.
func pad64(block uint64) uint64 {
	z := (block + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// whiten XORs b in place with the keystream, b[0] taken as token-stream
// position 0.  Self-inverse.
func whiten(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:])^pad64(uint64(i>>3)))
	}
	for ; i < len(b); i++ {
		b[i] ^= byte(pad64(uint64(i>>3)) >> (8 * (i & 7)))
	}
}

// Compressor is a reusable LZ77 encoder.  The zero value is NOT ready;
// use NewCompressor.  Not safe for concurrent use — netsim runs one per
// engine shard.
type Compressor struct {
	head [hashLen]int32    // position+1 of the newest occupant of each bucket (0 = empty)
	prev [WindowSize]int32 // ring: prev[p&ringMask] = position+1 preceding p in p's bucket
}

// NewCompressor returns a ready Compressor.  The table memory (~384 KiB)
// is the whole footprint; Compress itself allocates only when dst runs
// out of capacity.
func NewCompressor() *Compressor {
	c := &Compressor{}
	c.Reset()
	return c
}

// Reset discards all match state so the Compressor can take the next
// file.  Only the head table needs clearing: chains are rooted there,
// so stale prev entries are unreachable until overwritten.
func (c *Compressor) Reset() {
	clear(c.head[:])
}

// insert records position pos (whose 4-byte prefix is v) in the chain.
func (c *Compressor) insert(pos int, v uint32) {
	h := hash4(v)
	c.prev[pos&ringMask] = c.head[h]
	c.head[h] = int32(pos + 1)
}

// matchLen extends a match at (src[cand:], src[pos:]) up to max bytes.
func matchLen(src []byte, cand, pos, max int) int {
	n := 0
	for n < max && src[cand+n] == src[pos+n] {
		n++
	}
	return n
}

// Compress appends the compressed form of src to dst and returns the
// extended buffer.  Call Reset first when switching to unrelated input;
// Compress always encodes src as one self-contained stream (matches
// never reach before src[0]).
func (c *Compressor) Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	tokenStart := len(dst)
	litStart := 0 // first literal not yet flushed

	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLitRun {
				n = maxLitRun
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}

	pos := 0
	for pos+MinMatch <= len(src) {
		v := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(v)
		bestLen, bestDist := 0, 0
		limit := len(src) - pos
		if limit > MaxMatch {
			limit = MaxMatch
		}
		// cand < pos also shields a Compress issued without Reset (stale
		// chains naming positions past pos): such entries are skipped
		// rather than read out of bounds.
		cand := int(c.head[h]) - 1
		for chain := 0; chain < maxChain && cand >= 0 && cand < pos && pos-cand <= WindowSize; chain++ {
			if src[cand+bestLen] == src[pos+bestLen] { // cheap reject before the full walk
				if n := matchLen(src, cand, pos, limit); n > bestLen {
					bestLen, bestDist = n, pos-cand
					if n == limit {
						break
					}
				}
			}
			cand = int(c.prev[cand&ringMask]) - 1
		}
		if bestLen < MinMatch {
			c.insert(pos, v)
			pos++
			continue
		}
		flushLits(pos)
		dst = append(dst, byte(0x80|(bestLen-MinMatch)), byte(bestDist-1), byte((bestDist-1)>>8))
		// Index every covered position (stopping where a 4-byte load
		// would run past the end) so later matches can land mid-run.
		end := pos + bestLen
		for ; pos < end && pos+MinMatch <= len(src); pos++ {
			c.insert(pos, binary.LittleEndian.Uint32(src[pos:]))
		}
		pos = end
		litStart = end
	}
	flushLits(len(src))
	whiten(dst[tokenStart:])
	return dst
}

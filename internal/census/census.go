// Package census runs the polynomial-selection question the ROADMAP
// asks: do CRC generators picked as "best on uniform data" — the 5G NR
// slate of arXiv:2104.02639, Koopman's exhaustive-search winners, the
// deployed IEEE and Castagnoli polynomials — keep their ranking when
// the error distribution is the *measured* one, over the paper's corpus
// and fault models, instead of the uniform assumption?
//
// Two lanes answer it:
//
//   - The analytic lane (analysis.go) works in gf2poly algebra: order of
//     x (the 2-bit coverage horizon), the A2/A3 Hamming-weight spectrum
//     at the NR reference block length, burst residuals, and from those
//     the uniform-data P_ud and a BSC low-weight bound.
//
//   - The injection lane (run.go) replays the netsim fault battery —
//     splices, bursts, bit flips, correlated cell loss — through every
//     candidate simultaneously, riding the engine's e2e scoring path, and
//     counts real misses.  The run's measured error-class mix
//     (netsim.ErrClassTally) reweights the analytic per-class coverage
//     into a corpus-shaped P_ud.
//
// Candidates not in the default algo registry are built from generic
// crc.Params via algo.NewCRC, so they use the same slicing-by-8
// tables and zero-alloc Sum path as the built-ins.  Register
// (gated — never an init side effect, so default-battery reports keep
// their pinned shape) publishes them to the registry for netsim/cksumd
// scenarios that name them.
package census

import (
	"realsum/internal/algo"
	"realsum/internal/crc"
)

// Candidate is one census entry: a registry key plus the CRC parameters
// behind it.
type Candidate struct {
	// Key is the algo-registry name the candidate scores under.
	Key string
	// Params is the full Rocksoft parameterization.
	Params crc.Params
	// NR marks the 5G NR slate (3GPP TS 38.212 generators).
	NR bool
	// Builtin marks candidates the default registry already carries;
	// Register skips them.
	Builtin bool
	// Note is a one-phrase provenance for the report.
	Note string
}

// Slate returns the census candidates in report order: the deployed
// 32-bit generators, Koopman's search winners, then the 5G NR family
// by descending width.
func Slate() []Candidate {
	return []Candidate{
		{Key: "crc32", Params: crc.CRC32, Builtin: true, Note: "IEEE 802.3 / AAL5"},
		{Key: "crc32c", Params: crc.CRC32C, Builtin: true, Note: "Castagnoli (iSCSI)"},
		{Key: "crc32k", Params: crc.CRC32K, Note: "Koopman K1"},
		{Key: "crc32k2", Params: crc.CRC32K2, Note: "Koopman K2"},
		{Key: "crc24a", Params: crc.CRC24A, NR: true, Note: "NR transport block"},
		{Key: "crc24b", Params: crc.CRC24B, NR: true, Note: "NR code block"},
		{Key: "crc24c", Params: crc.CRC24C, NR: true, Note: "NR polar DCI"},
		{Key: "crc16-xmodem", Params: crc.CRC16XMODEM, NR: true, Note: "NR CRC16 / XMODEM"},
		{Key: "crc11", Params: crc.CRC11NR, NR: true, Note: "NR polar UCI"},
		{Key: "crc6", Params: crc.CRC6NR, NR: true, Note: "NR short UCI"},
	}
}

// Keys returns the slate's registry keys in report order — the names a
// scenario's algorithms list may use beyond the default registry.
func Keys() []string {
	slate := Slate()
	out := make([]string, len(slate))
	for i, c := range slate {
		out[i] = c.Key
	}
	return out
}

// ByKey returns the slate candidate with the given registry key.
func ByKey(key string) (Candidate, bool) {
	for _, c := range Slate() {
		if c.Key == key {
			return c, true
		}
	}
	return Candidate{}, false
}

// Algorithms builds a fresh algo.Algorithm per candidate, independent of
// the global registry — the injection lane always passes these
// explicitly, so running a census never perturbs the default battery's
// algorithm list (and the pinned reports shaped by it).
func Algorithms() []algo.Algorithm {
	slate := Slate()
	out := make([]algo.Algorithm, len(slate))
	for i, c := range slate {
		out[i] = algo.NewCRC(c.Params, c.Key)
	}
	return out
}

// Register publishes every census-only candidate to the algo registry,
// so scenarios and the CLIs can score them by name alongside the
// built-ins.  Idempotent; built-ins are skipped.
func Register() {
	for _, c := range Slate() {
		if c.Builtin {
			continue
		}
		if _, ok := algo.Lookup(c.Key); ok {
			continue
		}
		algo.Register(algo.NewCRC(c.Params, c.Key))
	}
}

// EnsureFor registers the census slate iff names mentions a census-only
// key — the hook the binaries call before validating a scenario's
// algorithm list, so census names resolve when asked for and the
// registry stays untouched otherwise.
func EnsureFor(names []string) {
	for _, n := range names {
		if c, ok := ByKey(n); ok && !c.Builtin {
			Register()
			return
		}
	}
}

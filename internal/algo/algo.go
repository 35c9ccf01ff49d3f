// Package algo defines the unified checksum-algorithm interface the
// rest of the repository dispatches through, plus a registry of every
// algorithm the study touches.
//
// Before this package existed every consumer — cmd/cksum, the Table 8
// Fletcher comparison, the Figure 3 distribution pass, the Adler
// extension — reached each algorithm through a different hand-coded
// call shape (inet.Checksum here, fletcher.Mod255.Sum(...).Checksum16()
// there, crc.New(params).Checksum elsewhere).  The Algorithm interface
// normalizes all of them to one shape: a canonical name, a width in
// bits, a one-shot Sum, and a fixed-stride composition (Stride) that
// folds per-block partials into the sum of a block train — the §4.1
// partial-sum machinery for the TCP sum, §5.2's positional shift for
// the Fletcher family, and GF(2) linearity for a CRC.  Stride is the
// only composition law: netsim scores cell trains through it and
// cmd/cksum streams files through it.
package algo

import (
	"fmt"
	"sync"

	"realsum/internal/crc"
)

// Algorithm is one checksum or CRC under a uniform calling convention.
// Sum and Stride produce the algorithm's canonical value — the one
// written to the wire or printed by cksum — right-aligned in a uint64.
type Algorithm interface {
	// Name is the registry key: short, lowercase, stable ("tcp",
	// "f255", "crc32", ...).
	Name() string
	// Width is the checksum width in bits.
	Width() int
	// Sum computes the checksum of data in one shot.
	Sum(data []byte) uint64
	// Stride returns the algorithm's fixed-stride composition over
	// n-byte blocks (n positive and even); see Stride.
	Stride(n int) Stride
	// UniformP is the probability that two independent uniformly
	// distributed inputs produce congruent checksums — the collision
	// floor every measured distribution is compared against.  It
	// reflects the algorithm's true value space: 1/65535 for the TCP
	// sum (double zero), 1/255² for Fletcher-255, 1/2^w for a w-bit
	// CRC.
	UniformP() float64
}

// Sum computes a's checksum of data in one shot.  It is the one-shot
// path for whole buffers — the full-recompute oracle netsim's
// cell-composed scoring (Stride) is tested against — and carries the
// performance contract hot loops rely on: one virtual call per buffer
// and zero steady-state allocations for every registry algorithm
// (pinned by TestSumZeroAlloc).
func Sum(a Algorithm, data []byte) uint64 { return a.Sum(data) }

// Stride composes an algorithm's sum of a message cut into fixed
// n-byte blocks from per-block partials: a caller that sees the same
// blocks many times (netsim scores every delivery as a train of 48-byte
// ATM cells, most of them pristine sent cells) computes each block's
// Partial once and folds it in at any block position for a few
// operations.  For a message B₀‖B₁‖…‖B_{k−1}‖T of k full blocks and a
// final 0 ≤ |T| bytes,
//
//	Sum(M) = s.Sum(s.Tail(s.Fold(s.Start(), [Partial(B₀) … Partial(B_{k−1})]), T))
//
// The block offsets are multiples of an even n, which is all every
// registry algorithm needs: the TCP sum never meets the odd-offset byte
// swap, and Fletcher-32 — whose 16-bit words make an odd split
// uncomposable — composes at even offsets like any Fletcher sum.
// States are opaque values of the one Stride.
type Stride interface {
	// Partial is the position-free partial of one n-byte block.  It is
	// below 2^Width(), so a caller storing many can pack them.
	Partial(block []byte) uint64
	// Patch is Partial(damaged) given part = Partial(old), for two
	// n-byte blocks that typically differ in a few bytes, whose
	// difference is diff (crc.AppendNibbles): a CRC XORs in the partial
	// of the difference, one table entry per nibble, and a sum takes
	// Partial(damaged).  A CRC patches blocks of at most
	// crc.MaxDeltaLen bytes; past that Patch panics.
	Patch(part uint64, diff crc.Nibbles, damaged []byte) uint64
	// Start is the state of the empty message.
	Start() uint64
	// Fold appends one full block per partial.
	Fold(state uint64, parts []uint64) uint64
	// Tail appends data directly as the message's final bytes.
	Tail(state uint64, data []byte) uint64
	// Sum is the algorithm's canonical value of a state.
	Sum(state uint64) uint64
}

var registry = struct {
	mu     sync.RWMutex
	order  []Algorithm
	byName map[string]Algorithm
}{byName: make(map[string]Algorithm)}

// Register adds an algorithm to the registry.  It panics on a duplicate
// name: names are the dispatch keys the whole harness relies on.
func Register(a Algorithm) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[a.Name()]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", a.Name()))
	}
	registry.byName[a.Name()] = a
	registry.order = append(registry.order, a)
}

// Lookup returns the registered algorithm with the given name.
func Lookup(name string) (Algorithm, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	a, ok := registry.byName[name]
	return a, ok
}

// MustLookup is Lookup for names the caller knows are registered.
func MustLookup(name string) Algorithm {
	a, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("algo: unknown algorithm %q", name))
	}
	return a
}

// All returns every registered algorithm in registration order, which
// is fixed for the built-ins so table layouts are deterministic.
func All() []Algorithm {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Algorithm, len(registry.order))
	copy(out, registry.order)
	return out
}

// Names returns the registered names in registration order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.Name()
	}
	return out
}

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
// bits, a one-shot Sum, and a streaming Digest.  Algorithms whose
// mathematics admit O(1) recombination of fragment checksums (the §4.1
// partial-sum machinery the paper's analysis rests on) additionally
// implement Combiner.
package algo

import (
	"fmt"
	"io"
	"sync"
)

// Algorithm is one checksum or CRC under a uniform calling convention.
// Sum and the Digest produce the algorithm's canonical value — the one
// written to the wire or printed by cksum — right-aligned in a uint64.
type Algorithm interface {
	// Name is the registry key: short, lowercase, stable ("tcp",
	// "f255", "crc32", ...).
	Name() string
	// Width is the checksum width in bits.
	Width() int
	// Sum computes the checksum of data in one shot.
	Sum(data []byte) uint64
	// New returns a fresh streaming digest.
	New() Digest
	// UniformP is the probability that two independent uniformly
	// distributed inputs produce congruent checksums — the collision
	// floor every measured distribution is compared against.  It
	// reflects the algorithm's true value space: 1/65535 for the TCP
	// sum (double zero), 1/255² for Fletcher-255, 1/2^w for a w-bit
	// CRC.
	UniformP() float64
}

// Digest is a streaming checksum accumulator.  Write never fails.
type Digest interface {
	io.Writer
	// Sum64 returns the checksum of everything written so far.
	Sum64() uint64
	// Reset restores the initial state.
	Reset()
}

// Sum computes a's checksum of data in one shot.  It is the documented
// choke point for hot scoring loops — netsim scores every delivered
// segment through it — and carries the performance contract the loops
// rely on: one virtual call per buffer, no Digest construction, and
// zero steady-state allocations for every registry algorithm (pinned by
// TestSumZeroAlloc).  Bulk CRC input dispatches through the raced
// kernel layer underneath (see internal/crc).
func Sum(a Algorithm, data []byte) uint64 { return a.Sum(data) }

// Combiner is implemented by algorithms whose checksum over a
// concatenation A‖B is recoverable from the standalone checksums of A
// and B and their lengths — the per-cell partial + combine structure
// the paper's §4.1 composition argument formalizes for the TCP sum and
// §5.2 for Fletcher's positional colouring.
type Combiner interface {
	Algorithm
	// Combine returns Sum(A‖B) given a = Sum(A), b = Sum(B) and the
	// fragment lengths in bytes.
	Combine(a, b uint64, lenA, lenB int) uint64
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

package ipfrag

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"realsum/internal/tcpip"
)

func buildPacket(rng *rand.Rand, n int, opts tcpip.BuildOptions) []byte {
	flow := tcpip.NewLoopbackFlow(opts)
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	return flow.NextPacket(nil, payload)
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, size := range []int{1, 7, 8, 100, 256, 1000, 1480} {
		for _, mtu := range []int{68, 96, 576, 1500} {
			pkt := buildPacket(rng, size, tcpip.BuildOptions{})
			frags, err := Fragment(pkt, mtu)
			if err != nil {
				t.Fatalf("size %d mtu %d: %v", size, mtu, err)
			}
			for _, f := range frags {
				if len(f) > mtu {
					t.Fatalf("fragment of %d bytes exceeds MTU %d", len(f), mtu)
				}
				if err := tcpip.ValidateIPv4(f, true); err != nil && err != tcpip.ErrBadLength {
					// Fragments parse with valid header checksums; the
					// full Validate length check compares against the
					// fragment, which is fine.
					t.Fatalf("fragment header invalid: %v", err)
				}
			}
			out, err := Reassemble(frags)
			if err != nil {
				t.Fatalf("size %d mtu %d: reassemble: %v", size, mtu, err)
			}
			if !bytes.Equal(out, pkt) {
				t.Fatalf("size %d mtu %d: round trip mismatch", size, mtu)
			}
		}
	}
}

// TestAppendReassembled pins the appending form: the packet lands after
// dst's bytes, a rejected set leaves dst as it was, and Reassemble
// leaves its caller's fragment order alone.
func TestAppendReassembled(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	pkt := buildPacket(rng, 700, tcpip.BuildOptions{})
	frags, err := Fragment(pkt, 96)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([][]byte, len(frags))
	for i, f := range frags {
		rev[len(frags)-1-i] = f
	}
	first := rev[0]
	if _, err := Reassemble(rev); err != nil || !bytes.Equal(rev[0], first) {
		t.Fatalf("Reassemble reordered its input (err %v)", err)
	}
	dst := []byte("prefix")
	out, err := AppendReassembled(dst, rev)
	if err != nil || string(out[:6]) != "prefix" || !bytes.Equal(out[6:], pkt) {
		t.Fatalf("AppendReassembled: err %v, %d bytes", err, len(out))
	}
	out, err = AppendReassembled(dst, frags[1:])
	if err != ErrGap || string(out) != "prefix" {
		t.Errorf("missing first fragment: err %v, dst now %q", err, out)
	}
}

func TestFragmentErrors(t *testing.T) {
	if _, err := Fragment(make([]byte, 10), 576); err != ErrShortPacket {
		t.Errorf("short packet: %v", err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	pkt := buildPacket(rng, 100, tcpip.BuildOptions{})
	if _, err := Fragment(pkt, 20); err != ErrBadMTU {
		t.Errorf("tiny MTU: %v", err)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	pkt := buildPacket(rng, 500, tcpip.BuildOptions{})
	frags, _ := Fragment(pkt, 96)
	if len(frags) < 3 {
		t.Fatalf("want several fragments, got %d", len(frags))
	}
	// Reverse order.
	rev := make([][]byte, len(frags))
	for i := range frags {
		rev[len(frags)-1-i] = frags[i]
	}
	out, err := Reassemble(rev)
	if err != nil || !bytes.Equal(out, pkt) {
		t.Fatalf("out-of-order reassembly: %v", err)
	}
}

func TestReassembleRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	pkt := buildPacket(rng, 500, tcpip.BuildOptions{})
	frags, _ := Fragment(pkt, 96)

	if _, err := Reassemble(nil); err != ErrNoFragments {
		t.Errorf("empty: %v", err)
	}
	// Missing middle fragment.
	missing := append(append([][]byte{}, frags[:1]...), frags[2:]...)
	if _, err := Reassemble(missing); err != ErrGap {
		t.Errorf("gap: %v", err)
	}
	// Missing last fragment.
	if _, err := Reassemble(frags[:len(frags)-1]); err != ErrNoLast {
		t.Errorf("no last: %v", err)
	}
	// Mixed datagram IDs: a second packet of the same flow carries the
	// next IP ID.
	flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
	flow.NextPacket(nil, make([]byte, 10))
	other := flow.NextPacket(nil, randPayload(rng, 500))
	frags2, _ := Fragment(other, 96)
	mixed := append(append([][]byte{}, frags[:1]...), frags2[1:]...)
	if _, err := Reassemble(mixed); err != ErrMixedID {
		t.Errorf("mixed IDs: %v", err)
	}
	// Corrupted fragment header checksum.
	bad := append([]byte(nil), frags[0]...)
	bad[4] ^= 0xFF
	if _, err := Reassemble(append([][]byte{bad}, frags[1:]...)); err != ErrBadFragHeader {
		t.Errorf("bad header: %v", err)
	}
}

func TestSwapPairDetectsRandomData(t *testing.T) {
	// Uniform payloads: every same-offset swap changes the sum with
	// overwhelming probability; misses ≈ 2^-16.
	rng := rand.New(rand.NewPCG(5, 5))
	var res SwapResult
	flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
	prev := flow.NextPacket(nil, randPayload(rng, 512))
	for i := 0; i < 200; i++ {
		next := flow.NextPacket(nil, randPayload(rng, 512))
		r, err := SwapPair(prev, next, 96, tcpip.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.Add(r)
		prev = next
	}
	if res.Substitutions == 0 || res.Remaining == 0 {
		t.Fatalf("no substitutions exercised: %+v", res)
	}
	if res.Missed > 2 {
		t.Errorf("uniform swaps missed %d of %d", res.Missed, res.Remaining)
	}
}

func randPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func zeroHeavyPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+2 <= n; i += 32 {
		b[i+1] = 1
	}
	b[rng.IntN(n)] = byte(rng.Uint32())
	return b
}

func TestSameOffsetSwapsAttenuateFletcherAdvantage(t *testing.T) {
	// When substituted data stays at its own offset, Fletcher loses the
	// inter-fragment colouring that drives its AAL5-splice advantage
	// (it keeps intra-fragment positional sensitivity, so it does not
	// fully degenerate).  On this matched corpus, where both sums see
	// plenty of congruent fragments, the two miss at comparable rates —
	// in contrast to AAL5 splices (Table 8), where Fletcher wins by an
	// order of magnitude.
	run := func(opts tcpip.BuildOptions) SwapResult {
		rng := rand.New(rand.NewPCG(6, 6))
		var res SwapResult
		flow := tcpip.NewLoopbackFlow(opts)
		prev := flow.NextPacket(nil, zeroHeavyPayload(rng, 512))
		for i := 0; i < 300; i++ {
			next := flow.NextPacket(nil, zeroHeavyPayload(rng, 512))
			r, err := SwapPair(prev, next, 96, opts)
			if err != nil {
				t.Fatal(err)
			}
			res.Add(r)
			prev = next
		}
		return res
	}
	tcp := run(tcpip.BuildOptions{})
	f256 := run(tcpip.BuildOptions{Alg: tcpip.AlgFletcher256})
	if tcp.Missed == 0 {
		t.Skip("zero-heavy corpus produced no TCP misses at this size")
	}
	f256Rate, _ := f256.MissRate()
	tcpRate, _ := tcp.MissRate()
	ratio := f256Rate / tcpRate
	if ratio < 0.2 {
		t.Errorf("Fletcher-256 still wins on same-offset swaps (ratio %.3f); coloring theory violated", ratio)
	}
}

func TestSwapResultHelpers(t *testing.T) {
	r := SwapResult{Remaining: 10, Missed: 2}
	if rate, ok := r.MissRate(); rate != 0.2 || !ok {
		t.Errorf("MissRate = %v, %v; want 0.2, true", rate, ok)
	}
	var empty SwapResult
	if _, ok := empty.MissRate(); ok {
		t.Error("empty MissRate reports a known rate")
	}
}

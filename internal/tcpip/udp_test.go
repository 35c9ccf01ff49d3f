package tcpip

import (
	"math/rand/v2"
	"testing"
)

// DecodeFromBytes parses a UDP header from b: the reference decoder
// TestUDPHeaderRoundTrip holds SerializeTo to.
func (h *UDPHeader) DecodeFromBytes(b []byte) error {
	if len(b) < UDPHeaderLen {
		return ErrTruncated
	}
	h.SrcPort = getU16(b[0:])
	h.DstPort = getU16(b[2:])
	h.Length = getU16(b[4:])
	h.Checksum = getU16(b[6:])
	return nil
}

func TestUDPHeaderRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 53, DstPort: 1234, Length: 100, Checksum: 0xBEEF}
	var b [UDPHeaderLen]byte
	if err := h.SerializeTo(b[:]); err != nil {
		t.Fatal(err)
	}
	var g UDPHeader
	if err := g.DecodeFromBytes(b[:]); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: %+v vs %+v", g, h)
	}
	if err := h.SerializeTo(b[:4]); err != ErrTruncated {
		t.Errorf("short serialize: %v", err)
	}
	if err := g.DecodeFromBytes(b[:4]); err != ErrTruncated {
		t.Errorf("short decode: %v", err)
	}
}

func TestUDPBuildAndVerify(t *testing.T) {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 200; trial++ {
		payload := make([]byte, rng.IntN(500))
		for i := range payload {
			payload[i] = byte(rng.Uint32())
		}
		dgram := BuildUDPDatagram(src, dst, 53, 4321, payload)
		if !VerifyUDP(src, dst, dgram) {
			t.Fatalf("valid datagram (len %d) failed verification", len(payload))
		}
		if len(payload) > 0 {
			pos := UDPHeaderLen + rng.IntN(len(payload))
			dgram[pos] ^= 0x7F
			if VerifyUDP(src, dst, dgram) {
				t.Fatalf("corrupted datagram verified")
			}
		}
	}
}

func TestUDPZeroChecksumSemantics(t *testing.T) {
	src, dst := [4]byte{127, 0, 0, 1}, [4]byte{127, 0, 0, 1}
	// A stored checksum of zero means "no checksum": always accepted.
	dgram := BuildUDPDatagram(src, dst, 1, 2, []byte("damage me"))
	dgram[6], dgram[7] = 0, 0
	dgram[10] ^= 0xFF
	if !VerifyUDP(src, dst, dgram) {
		t.Error("zero checksum must disable verification")
	}
	// The transmitted checksum is never 0x0000: craft a payload whose
	// complemented sum would be zero and confirm the 0xFFFF mapping.
	// Easiest: search a one-byte payload space for the case.
	found := false
	for v := 0; v < 256 && !found; v++ {
		d := BuildUDPDatagram(src, dst, 0, 0, []byte{byte(v)})
		ck := uint16(d[6])<<8 | uint16(d[7])
		if ck == 0 {
			t.Fatal("transmitted UDP checksum of 0x0000")
		}
		if ck == 0xFFFF {
			found = true
			if !VerifyUDP(src, dst, d) {
				t.Error("datagram with mapped 0xFFFF checksum must verify")
			}
		}
	}
	// (found is not guaranteed in so small a search space; the
	// invariant that matters is ck != 0, asserted above.)
	_ = found
}

func TestUDPVerifyTruncated(t *testing.T) {
	if VerifyUDP([4]byte{}, [4]byte{}, []byte{1, 2, 3}) {
		t.Error("truncated datagram verified")
	}
}

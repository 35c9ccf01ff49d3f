package tcpip

import (
	"math/rand/v2"
	"testing"

	"realsum/internal/fletcher"
	"realsum/internal/inet"
)

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0x10, TotalLength: 296, ID: 42, Flags: 2, FragOffset: 0,
		TTL: 64, Protocol: ProtocolTCP, Checksum: 0xABCD,
		Src: [4]byte{127, 0, 0, 1}, Dst: [4]byte{10, 1, 2, 3},
	}
	var b [IPv4HeaderLen]byte
	if err := h.SerializeTo(b[:]); err != nil {
		t.Fatal(err)
	}
	var g IPv4Header
	if err := g.DecodeFromBytes(b[:]); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: got %+v, want %+v", g, h)
	}
}

func TestIPv4ChecksumSelfConsistent(t *testing.T) {
	h := IPv4Header{
		TotalLength: 115, TTL: 64, Protocol: 17,
		Src: [4]byte{192, 168, 0, 1}, Dst: [4]byte{192, 168, 0, 199},
	}
	h.ComputeChecksum()
	var b [IPv4HeaderLen]byte
	h.SerializeTo(b[:])
	if !inet.Verify(b[:]) {
		t.Errorf("header with computed checksum %#04x does not verify", h.Checksum)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4Header
	if err := h.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short buffer: %v", err)
	}
	b := make([]byte, 20)
	b[0] = 6 << 4
	if err := h.DecodeFromBytes(b); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	b[0] = 4<<4 | 6
	if err := h.DecodeFromBytes(b); err != ErrBadIHL {
		t.Errorf("bad IHL: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHeader{
		SrcPort: 20, DstPort: 1234, Seq: 0xDEADBEEF, Ack: 0xCAFEBABE,
		Flags: FlagACK | FlagPSH, Window: 8760, Checksum: 0x1234, Urgent: 0,
	}
	var b [TCPHeaderLen]byte
	if err := h.SerializeTo(b[:]); err != nil {
		t.Fatal(err)
	}
	var g TCPHeader
	if err := g.DecodeFromBytes(b[:]); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: got %+v, want %+v", g, h)
	}
}

func TestTCPChecksumAgainstKnownStack(t *testing.T) {
	// Construct a segment and verify VerifyTCP accepts it and rejects
	// any single-word corruption of the payload.
	src, dst := [4]byte{127, 0, 0, 1}, [4]byte{127, 0, 0, 1}
	seg := make([]byte, TCPHeaderLen+32)
	h := TCPHeader{SrcPort: 20, DstPort: 1234, Seq: 99, Ack: 1, Flags: FlagACK, Window: 1000}
	h.SerializeTo(seg)
	for i := TCPHeaderLen; i < len(seg); i++ {
		seg[i] = byte(i * 7)
	}
	ck := TCPChecksum(src, dst, seg)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	if !VerifyTCP(src, dst, seg) {
		t.Fatal("valid segment does not verify")
	}
	seg[25] ^= 0x40
	if VerifyTCP(src, dst, seg) {
		t.Fatal("corrupted segment verifies")
	}
}

func TestValidateTCPFlags(t *testing.T) {
	seg := make([]byte, TCPHeaderLen)
	h := TCPHeader{Flags: FlagACK}
	h.SerializeTo(seg)
	if err := ValidateTCP(seg); err != nil {
		t.Errorf("plain ACK rejected: %v", err)
	}
	for _, bad := range []uint8{0, FlagSYN, FlagACK | FlagSYN, FlagACK | FlagFIN, FlagACK | FlagRST, FlagACK | FlagURG} {
		h.Flags = bad
		h.SerializeTo(seg)
		if err := ValidateTCP(seg); err != ErrBadFlags {
			t.Errorf("flags %#02x: got %v, want ErrBadFlags", bad, err)
		}
	}
	h.Flags = FlagACK | FlagPSH
	h.SerializeTo(seg)
	if err := ValidateTCP(seg); err != nil {
		t.Errorf("ACK|PSH rejected: %v", err)
	}
}

func allOpts() []BuildOptions {
	var out []BuildOptions
	for _, alg := range []ChecksumAlg{AlgTCP, AlgFletcher255, AlgFletcher256} {
		for _, pl := range []Placement{PlacementHeader, PlacementTrailer} {
			out = append(out, BuildOptions{Alg: alg, Placement: pl})
		}
	}
	out = append(out,
		BuildOptions{Alg: AlgTCP, NoInvert: true},
		BuildOptions{Alg: AlgTCP, ZeroIPHeader: true},
		BuildOptions{Alg: AlgTCP, Placement: PlacementTrailer, NoInvert: true},
	)
	return out
}

func TestFlowPacketsVerifyUnderEveryOption(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, opts := range allOpts() {
		f := NewLoopbackFlow(opts)
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.IntN(300) // odd and even payloads, incl. runts
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(rng.Uint32())
			}
			pkt := f.NextPacket(nil, payload)
			if len(pkt) != opts.PacketLen(n) {
				t.Fatalf("%+v: packet length %d, want %d", opts, len(pkt), opts.PacketLen(n))
			}
			if err := ValidateHeaders(pkt, opts); err != nil {
				t.Fatalf("%+v: built packet fails header checks: %v", opts, err)
			}
			if !VerifyPacket(pkt, opts) {
				t.Fatalf("%+v (payload %d): built packet fails checksum verification", opts, n)
			}
			// Flip one payload byte: TCP and Fletcher-256 must always
			// detect; Fletcher-255 may miss a 0x00<->0xFF flip.
			pos := HeadersLen + rng.IntN(n)
			orig := pkt[pos]
			pkt[pos] ^= 0x5A
			if VerifyPacket(pkt, opts) && opts.Alg != AlgFletcher255 {
				t.Fatalf("%+v: single-byte corruption at %d verified", opts, pos)
			}
			pkt[pos] = orig
		}
	}
}

func TestFlowSequencesAdvanceLikeFTP(t *testing.T) {
	f := NewLoopbackFlow(BuildOptions{})
	p1 := f.NextPacket(nil, make([]byte, 256))
	p2 := f.NextPacket(nil, make([]byte, 256))
	var ip1, ip2 IPv4Header
	var t1, t2 TCPHeader
	ip1.DecodeFromBytes(p1)
	ip2.DecodeFromBytes(p2)
	t1.DecodeFromBytes(p1[IPv4HeaderLen:])
	t2.DecodeFromBytes(p2[IPv4HeaderLen:])
	if ip2.ID != ip1.ID+1 {
		t.Errorf("IP ID advanced by %d, want 1", ip2.ID-ip1.ID)
	}
	if t2.Seq != t1.Seq+256 {
		t.Errorf("TCP seq advanced by %d, want 256", t2.Seq-t1.Seq)
	}
	if !inet.Verify(p1[:IPv4HeaderLen]) || !inet.Verify(p2[:IPv4HeaderLen]) {
		t.Error("IP header checksums not filled")
	}
}

func TestZeroIPHeaderAblation(t *testing.T) {
	f := NewLoopbackFlow(BuildOptions{ZeroIPHeader: true})
	pkt := f.NextPacket(nil, make([]byte, 64))
	var ip IPv4Header
	ip.DecodeFromBytes(pkt)
	if ip.ID != 0 || ip.TTL != 0 || ip.Checksum != 0 {
		t.Errorf("ZeroIPHeader should leave ID/TTL/checksum zero, got %+v", ip)
	}
	// Header checks must still pass (checksum check is skipped).
	if err := ValidateHeaders(pkt, BuildOptions{ZeroIPHeader: true}); err != nil {
		t.Errorf("zeroed-header packet fails validation: %v", err)
	}
}

func TestTrailerPlacementLayout(t *testing.T) {
	opts := BuildOptions{Placement: PlacementTrailer}
	f := NewLoopbackFlow(opts)
	payload := []byte("hello, splice world")
	pkt := f.NextPacket(nil, payload)
	// Header checksum field must be zero; trailer field non-trivial.
	if getU16(pkt[IPv4HeaderLen+16:]) != 0 {
		t.Error("trailer mode must leave the header checksum field zero")
	}
	off := opts.ChecksumOffset(len(pkt))
	if off != len(pkt)-2 {
		t.Errorf("trailer checksum offset = %d, want %d", off, len(pkt)-2)
	}
	if string(pkt[HeadersLen:HeadersLen+len(payload)]) != string(payload) {
		t.Error("payload not intact before trailer")
	}
}

func TestFletcherPacketSumsToZero(t *testing.T) {
	for _, alg := range []ChecksumAlg{AlgFletcher255, AlgFletcher256} {
		m := fletcher.Mod255
		if alg == AlgFletcher256 {
			m = fletcher.Mod256
		}
		f := NewLoopbackFlow(BuildOptions{Alg: alg})
		pkt := f.NextPacket(nil, []byte("some payload bytes here"))
		if !m.Verify(pkt[IPv4HeaderLen:]) {
			t.Errorf("%v: segment does not Fletcher-sum to zero", alg)
		}
	}
}

func TestNextPacketAppends(t *testing.T) {
	f := NewLoopbackFlow(BuildOptions{})
	buf := f.NextPacket(nil, make([]byte, 10))
	n1 := len(buf)
	buf = f.NextPacket(buf, make([]byte, 20))
	if len(buf) != n1+f.Opts.PacketLen(20) {
		t.Errorf("append: len %d", len(buf))
	}
	if err := ValidateHeaders(buf[:n1], f.Opts); err != nil {
		t.Errorf("first packet damaged by append: %v", err)
	}
	if err := ValidateHeaders(buf[n1:], f.Opts); err != nil {
		t.Errorf("second packet invalid: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if AlgTCP.String() != "TCP" || AlgFletcher255.String() != "F-255" || AlgFletcher256.String() != "F-256" {
		t.Error("ChecksumAlg strings")
	}
	if PlacementHeader.String() != "header" || PlacementTrailer.String() != "trailer" {
		t.Error("Placement strings")
	}
}

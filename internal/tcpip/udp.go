package tcpip

import (
	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// UDPHeaderLen is the fixed UDP header size.
const UDPHeaderLen = 8

// ProtocolUDP is the IPv4 protocol number for UDP.
const ProtocolUDP = 17

// UDPHeader is the 8-byte UDP header.  UDP shares the Internet checksum
// with IP and TCP (§1 of the paper) but adds one wrinkle the
// ones-complement double zero makes possible: a transmitted checksum of
// 0x0000 means "no checksum", so a computed sum of zero is sent as its
// other representation, 0xFFFF.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// SerializeTo writes the header into b (at least UDPHeaderLen bytes).
func (h *UDPHeader) SerializeTo(b []byte) error {
	if len(b) < UDPHeaderLen {
		return ErrTruncated
	}
	putU16(b[0:], h.SrcPort)
	putU16(b[2:], h.DstPort)
	putU16(b[4:], h.Length)
	putU16(b[6:], h.Checksum)
	return nil
}

// udpPseudoSum is the UDP pseudo-header sum (protocol 17).
func udpPseudoSum(src, dst [4]byte, udpLen int) uint16 {
	var b [12]byte
	copy(b[0:4], src[:])
	copy(b[4:8], dst[:])
	b[9] = ProtocolUDP
	putU16(b[10:], uint16(udpLen))
	return inet.Sum(b[:])
}

// UDPChecksum computes the UDP checksum field for datagram bytes dgram
// (header with zeroed checksum field + payload).  A computed value of
// 0x0000 is mapped to 0xFFFF, because zero is reserved to mean "no
// checksum transmitted" — a protocol design decision possible only
// because ones-complement arithmetic has two zeros (§6.1).
func UDPChecksum(src, dst [4]byte, dgram []byte) uint16 {
	sum := onescomp.Add(udpPseudoSum(src, dst, len(dgram)), inet.Sum(dgram))
	ck := onescomp.Neg(sum)
	if ck == 0 {
		return 0xFFFF
	}
	return ck
}

// VerifyUDP checks a received UDP datagram (with its checksum field in
// place).  A zero stored checksum means the sender didn't checksum and
// the datagram is accepted.
func VerifyUDP(src, dst [4]byte, dgram []byte) bool {
	if len(dgram) < UDPHeaderLen {
		return false
	}
	if getU16(dgram[6:]) == 0 {
		return true // checksum disabled
	}
	sum := onescomp.Add(udpPseudoSum(src, dst, len(dgram)), inet.Sum(dgram))
	return onescomp.IsZero(onescomp.Neg(sum))
}

// BuildUDPDatagram constructs a complete UDP datagram with a valid
// checksum.
func BuildUDPDatagram(src, dst [4]byte, srcPort, dstPort uint16, payload []byte) []byte {
	dgram := make([]byte, UDPHeaderLen+len(payload))
	h := UDPHeader{
		SrcPort: srcPort, DstPort: dstPort,
		Length: uint16(UDPHeaderLen + len(payload)),
	}
	h.SerializeTo(dgram)
	copy(dgram[UDPHeaderLen:], payload)
	ck := UDPChecksum(src, dst, dgram)
	putU16(dgram[6:], ck)
	return dgram
}

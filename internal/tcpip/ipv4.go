// Package tcpip implements the IPv4 and TCP header formats, the Internet
// pseudo-header, and the packet builder the paper's FTP simulation uses.
//
// The decode/serialize style follows the usual Go packet-layer idiom:
// the IPv4 and TCP headers have DecodeFromBytes and SerializeTo methods
// operating on caller-owned buffers, so the splice simulator can
// construct and inspect millions of packets without allocation.
package tcpip

import (
	"errors"

	"realsum/internal/inet"
)

// Byte sizes of the fixed headers used throughout the study (no IP or
// TCP options, exactly as the paper's simulated FTP transfer).
const (
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	HeadersLen    = IPv4HeaderLen + TCPHeaderLen // the "first 40 bytes" of §3.1
)

// ProtocolTCP is the IPv4 protocol number for TCP.
const ProtocolTCP = 6

// Errors returned by the decoders.  The splice simulator treats any of
// them as "caught by header checks".
var (
	ErrTruncated     = errors.New("tcpip: buffer too short")
	ErrBadVersion    = errors.New("tcpip: IP version is not 4")
	ErrBadIHL        = errors.New("tcpip: IP header length is not 5 words")
	ErrBadLength     = errors.New("tcpip: IP total length inconsistent")
	ErrBadProtocol   = errors.New("tcpip: protocol is not TCP")
	ErrBadIPChecksum = errors.New("tcpip: IP header checksum invalid")
	ErrBadDataOffset = errors.New("tcpip: TCP data offset is not 5 words")
	ErrBadFlags      = errors.New("tcpip: TCP flags are not a plain ACK segment")
)

// IPv4Header is a 20-byte IPv4 header without options.
type IPv4Header struct {
	TOS         uint8
	TotalLength uint16
	ID          uint16
	Flags       uint8 // 3-bit flags field (bit 1 = DF)
	FragOffset  uint16
	TTL         uint8
	Protocol    uint8
	Checksum    uint16
	Src         [4]byte
	Dst         [4]byte
}

// SerializeTo writes the header into b, which must be at least
// IPv4HeaderLen bytes.  The Checksum field is written as-is; call
// ComputeChecksum first to fill it.
func (h *IPv4Header) SerializeTo(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	b[0] = 4<<4 | 5 // version 4, IHL 5
	b[1] = h.TOS
	putU16(b[2:], h.TotalLength)
	putU16(b[4:], h.ID)
	putU16(b[6:], uint16(h.Flags)<<13|h.FragOffset&0x1FFF)
	b[8] = h.TTL
	b[9] = h.Protocol
	putU16(b[10:], h.Checksum)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	return nil
}

// DecodeFromBytes parses a 20-byte optionless IPv4 header from b.  It
// performs only structural decoding; use Validate for the paper's
// header checks.
func (h *IPv4Header) DecodeFromBytes(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	if b[0]&0x0F != 5 {
		return ErrBadIHL
	}
	h.TOS = b[1]
	h.TotalLength = getU16(b[2:])
	h.ID = getU16(b[4:])
	h.Flags = uint8(getU16(b[6:]) >> 13)
	h.FragOffset = getU16(b[6:]) & 0x1FFF
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = getU16(b[10:])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return nil
}

// ComputeChecksum fills h.Checksum with the RFC 791 header checksum.
func (h *IPv4Header) ComputeChecksum() {
	var buf [IPv4HeaderLen]byte
	h.Checksum = 0
	h.SerializeTo(buf[:])
	h.Checksum = inet.Checksum(buf[:])
}

// ValidateIPv4 runs the syntactic IP-layer checks of §3.1 on a candidate
// packet: version, header length, total length against the buffer, TCP
// protocol, and (if checkSum is true) the IP header checksum.  It
// returns nil when the buffer could plausibly be an intact packet.
func ValidateIPv4(pkt []byte, checkSum bool) error {
	var h IPv4Header
	if err := h.DecodeFromBytes(pkt); err != nil {
		return err
	}
	if int(h.TotalLength) != len(pkt) {
		return ErrBadLength
	}
	if h.Protocol != ProtocolTCP {
		return ErrBadProtocol
	}
	if checkSum && !inet.Verify(pkt[:IPv4HeaderLen]) {
		return ErrBadIPChecksum
	}
	return nil
}

func putU16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
func getU16(b []byte) uint16    { return uint16(b[0])<<8 | uint16(b[1]) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

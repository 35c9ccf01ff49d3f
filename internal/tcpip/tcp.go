package tcpip

import (
	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCPHeader is a 20-byte optionless TCP header.
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
}

// SerializeTo writes the header into b (at least TCPHeaderLen bytes).
// The Checksum field is written as-is.
func (h *TCPHeader) SerializeTo(b []byte) error {
	if len(b) < TCPHeaderLen {
		return ErrTruncated
	}
	putU16(b[0:], h.SrcPort)
	putU16(b[2:], h.DstPort)
	putU32(b[4:], h.Seq)
	putU32(b[8:], h.Ack)
	b[12] = 5 << 4 // data offset 5 words, no options
	b[13] = h.Flags
	putU16(b[14:], h.Window)
	putU16(b[16:], h.Checksum)
	putU16(b[18:], h.Urgent)
	return nil
}

// DecodeFromBytes parses an optionless TCP header from b.
func (h *TCPHeader) DecodeFromBytes(b []byte) error {
	if len(b) < TCPHeaderLen {
		return ErrTruncated
	}
	if b[12]>>4 != 5 {
		return ErrBadDataOffset
	}
	h.SrcPort = getU16(b[0:])
	h.DstPort = getU16(b[2:])
	h.Seq = getU32(b[4:])
	h.Ack = getU32(b[8:])
	h.Flags = b[13]
	h.Window = getU16(b[14:])
	h.Checksum = getU16(b[16:])
	h.Urgent = getU16(b[18:])
	return nil
}

// PseudoHeaderSum returns the ones-complement sum of the TCP
// pseudo-header for a segment of tcpLen bytes (header + payload)
// between src and dst.
func PseudoHeaderSum(src, dst [4]byte, tcpLen int) uint16 {
	var b [12]byte
	copy(b[0:4], src[:])
	copy(b[4:8], dst[:])
	b[9] = ProtocolTCP
	putU16(b[10:], uint16(tcpLen))
	return inet.Sum(b[:])
}

// TCPChecksum computes the TCP checksum field value for the segment
// bytes seg (TCP header with zeroed checksum field + payload) between
// src and dst: the complement of the sum over pseudo-header and segment.
func TCPChecksum(src, dst [4]byte, seg []byte) uint16 {
	sum := onescomp.Add(PseudoHeaderSum(src, dst, len(seg)), inet.Sum(seg))
	return onescomp.Neg(sum)
}

// VerifyTCP reports whether the segment seg (including its stored
// checksum) passes the TCP checksum against the given addresses.
func VerifyTCP(src, dst [4]byte, seg []byte) bool {
	sum := onescomp.Add(PseudoHeaderSum(src, dst, len(seg)), inet.Sum(seg))
	return onescomp.IsZero(onescomp.Neg(sum))
}

// ValidateTCP runs the syntactic TCP-layer checks of §3.1 on the segment
// bytes: data offset and "certain bits must be set" — a mid-transfer FTP
// data segment carries a plain ACK (PSH allowed), never SYN/FIN/RST/URG.
func ValidateTCP(seg []byte) error {
	var h TCPHeader
	if err := h.DecodeFromBytes(seg); err != nil {
		return err
	}
	if h.Flags&FlagACK == 0 || h.Flags&(FlagSYN|FlagFIN|FlagRST|FlagURG) != 0 {
		return ErrBadFlags
	}
	return nil
}

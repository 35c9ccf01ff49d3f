// Package atm implements the ATM cell format and AAL5 (ATM Adaptation
// Layer 5) segmentation and reassembly, the transport substrate of the
// paper's splice experiments.
//
// AAL5 carries a packet (the CPCS-SDU) as a sequence of 48-byte cell
// payloads: the packet, zero padding, and an 8-byte CPCS trailer holding
// the user-to-user byte, the common part indicator, the 16-bit SDU
// length, and a CRC-32 over the entire CPCS-PDU.  The final cell of a
// packet is marked with the ATM-user-to-ATM-user bit of the cell
// header's PTI field; a receiver accumulates payloads until it sees a
// marked cell.  A "packet splice" (§3.1) happens when cell losses leave
// a subsequence of two adjacent packets' cells that still ends in a
// marked cell and passes the trailer checks.
package atm

import (
	"errors"

	"realsum/internal/crc"
)

// PayloadSize is the number of payload bytes in one cell.
const PayloadSize = 48

// TrailerSize is the length of the AAL5 CPCS trailer.
const TrailerSize = 8

// MaxSDU is the largest CPCS-SDU length representable in the trailer.
const MaxSDU = 65535

// Errors reported by reassembly and splice validation.
var (
	ErrNoCells   = errors.New("atm: no cells")
	ErrNotLast   = errors.New("atm: final cell is not marked end-of-packet")
	ErrEarlyLast = errors.New("atm: interior cell is marked end-of-packet")
	ErrBadLength = errors.New("atm: trailer length inconsistent with cell count")
	ErrBadCRC    = errors.New("atm: CPCS CRC-32 mismatch")
	ErrTooLong   = errors.New("atm: SDU longer than 65535 bytes")
)

// aal5CRC is the CRC-32 engine the AAL5 trailer uses.
var aal5CRC = crc.New(crc.CRC32)

// Header holds the fields of the 5-byte ATM cell header at the UNI: a
// 4-bit generic flow control field, 8-bit VPI, 16-bit VCI, 3-bit payload
// type indicator and the cell-loss-priority bit.  Cells never travel as
// bytes here, so the HEC octet over the first four bytes is not kept.
type Header struct {
	GFC uint8  // 4 bits
	VPI uint8  // 8 bits at the UNI
	VCI uint16 // 16 bits
	PTI uint8  // 3 bits; bit 0 = ATM-user-to-ATM-user (AAL5 end of packet)
	CLP bool
}

// EndOfPacket reports whether the header marks the final cell of an
// AAL5 CPCS-PDU.
func (h Header) EndOfPacket() bool { return h.PTI&1 == 1 }

// Cell is one ATM cell: header plus its 48-byte payload.
type Cell struct {
	Header  Header
	Payload [PayloadSize]byte
}

// Trailer is the 8-byte AAL5 CPCS trailer occupying the final bytes of
// the last cell.
type Trailer struct {
	UU     uint8  // CPCS user-to-user indication
	CPI    uint8  // common part indicator (0)
	Length uint16 // CPCS-SDU length in bytes
	CRC    uint32 // CRC-32 over the whole CPCS-PDU up to this field
}

// decodeTrailer reads the trailer from the final 8 bytes of a payload
// sequence.
func decodeTrailer(lastPayload []byte) Trailer {
	t := lastPayload[len(lastPayload)-TrailerSize:]
	return Trailer{
		UU:     t[0],
		CPI:    t[1],
		Length: uint16(t[2])<<8 | uint16(t[3]),
		CRC:    uint32(t[4])<<24 | uint32(t[5])<<16 | uint32(t[6])<<8 | uint32(t[7]),
	}
}

// DecodeTrailer reads the CPCS trailer from the final TrailerSize bytes
// of the last cell's payload, without any framing validation or
// allocation — for callers (like the splice enumerator) that built the
// cells themselves and only need the carried length and CRC.
func DecodeTrailer(lastPayload []byte) Trailer { return decodeTrailer(lastPayload) }

// CellCount returns the number of cells AAL5 needs for an SDU of n
// bytes: the SDU plus the 8-byte trailer, rounded up to whole cells.
func CellCount(n int) int {
	return (n + TrailerSize + PayloadSize - 1) / PayloadSize
}

// AppendSegment appends the AAL5 cell sequence carrying sdu on the
// given virtual circuit to cells and returns the extended slice.  The
// last cell has the end-of-packet PTI bit set and its final 8 bytes
// hold the CPCS trailer; all padding is zero.  It reuses the slice's
// capacity and performs no other allocation, so a caller segmenting a
// packet stream (the splice enumerator's steady state) can recycle one
// buffer.
func AppendSegment(cells []Cell, sdu []byte, vpi uint8, vci uint16) ([]Cell, error) {
	if len(sdu) > MaxSDU {
		return cells, ErrTooLong
	}
	n := CellCount(len(sdu))
	base := len(cells)
	for i := 0; i < n; i++ {
		// The composite literal zeroes the payload, so reused capacity
		// carries no stale padding bytes.
		cells = append(cells, Cell{Header: Header{VPI: vpi, VCI: vci}})
	}
	out := cells[base:]
	out[n-1].Header.PTI = 1
	for i := 0; i < n && i*PayloadSize < len(sdu); i++ {
		copy(out[i].Payload[:], sdu[i*PayloadSize:])
	}
	t := out[n-1].Payload[PayloadSize-TrailerSize:]
	t[0], t[1] = 0, 0 // UU, CPI
	t[2], t[3] = byte(len(sdu)>>8), byte(len(sdu))
	reg := aal5CRC.RawInit()
	for i := 0; i < n-1; i++ {
		reg = aal5CRC.RawUpdate(reg, out[i].Payload[:])
	}
	reg = aal5CRC.RawUpdate(reg, out[n-1].Payload[:PayloadSize-4])
	c := uint32(aal5CRC.RawCRC(reg))
	t[4], t[5], t[6], t[7] = byte(c>>24), byte(c>>16), byte(c>>8), byte(c)
	return cells, nil
}

// Reassemble validates an AAL5 cell sequence and returns the carried
// SDU.  It applies exactly the checks a receiver applies — and therefore
// exactly the checks a splice must evade before the CRC is even
// consulted (§3.1): the final cell must be marked, no interior cell may
// be marked, the trailer length must be consistent with the cell count,
// and the CRC-32 must match.
func Reassemble(cells []Cell) ([]byte, error) {
	pdu, tr, err := checkFraming(cells)
	if err != nil {
		return nil, err
	}
	if uint32(aal5CRC.Checksum(pdu[:len(pdu)-4])) != tr.CRC {
		return nil, ErrBadCRC
	}
	return pdu[:tr.Length], nil
}

// checkFraming runs the non-CRC structural checks and returns the
// concatenated PDU and decoded trailer.
func checkFraming(cells []Cell) ([]byte, Trailer, error) {
	if len(cells) == 0 {
		return nil, Trailer{}, ErrNoCells
	}
	for i := 0; i < len(cells)-1; i++ {
		if cells[i].Header.EndOfPacket() {
			return nil, Trailer{}, ErrEarlyLast
		}
	}
	last := cells[len(cells)-1]
	if !last.Header.EndOfPacket() {
		return nil, Trailer{}, ErrNotLast
	}
	pdu := make([]byte, 0, len(cells)*PayloadSize)
	for i := range cells {
		pdu = append(pdu, cells[i].Payload[:]...)
	}
	tr := decodeTrailer(pdu)
	if CellCount(int(tr.Length)) != len(cells) {
		return nil, tr, ErrBadLength
	}
	return pdu, tr, nil
}

// CheckFraming exposes the structural (non-CRC) reassembly checks for
// the splice enumerator: it reports whether cells form a syntactically
// plausible AAL5 packet and, if so, returns its trailer.
func CheckFraming(cells []Cell) (Trailer, error) {
	_, tr, err := checkFraming(cells)
	return tr, err
}

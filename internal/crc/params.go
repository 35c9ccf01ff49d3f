package crc

import "realsum/internal/gf2poly"

// Catalog of CRC algorithms used by the paper and its substrates.  Poly,
// Init, reflection, XorOut and Check values follow the Rocksoft/catalog
// conventions (CRC RevEng parameter database).
var (
	// CRC32 is the IEEE 802.3 / AAL5 / ISO-HDLC CRC-32: the algorithm
	// AAL5 uses in its CPCS trailer and the one the paper measures
	// against packet splices.  It detects all burst errors shorter than
	// 32 bits and all 2-bit errors less than 2048 bits apart (§2).
	CRC32 = Params{
		Name: "CRC-32", Width: 32, Poly: 0x04C11DB7,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0xCBF43926,
	}

	// CRC32C is the Castagnoli CRC-32 (iSCSI, SCTP), included as the
	// strongest common 32-bit alternative.
	CRC32C = Params{
		Name: "CRC-32C", Width: 32, Poly: 0x1EDC6F41,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0xE3069283,
	}

	// CRC10 is the ATM OAM CRC-10 (ITU-T I.610), the natural 10-bit CRC
	// to compare against: §7's headline observation is that the 16-bit
	// TCP checksum over real data performs about as well as a 10-bit CRC
	// over uniform data.
	CRC10 = Params{
		Name: "CRC-10", Width: 10, Poly: 0x233,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x199,
	}

	// CRC16 is the "ARC" CRC-16 (ANSI, x^16+x^15+x^2+1).  Its generator
	// contains the factor (x+1), so it detects all odd-weight errors.
	CRC16 = Params{
		Name: "CRC-16", Width: 16, Poly: 0x8005,
		Init: 0, RefIn: true, RefOut: true, XorOut: 0,
		Check: 0xBB3D,
	}

	// CRC16CCITT is the CCITT CRC-16 with 0xFFFF preset
	// (x^16+x^12+x^5+1, also divisible by x+1).
	CRC16CCITT = Params{
		Name: "CRC-16/CCITT", Width: 16, Poly: 0x1021,
		Init: 0xFFFF, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x29B1,
	}

	// CRC16XMODEM is the zero-preset CCITT polynomial variant.
	CRC16XMODEM = Params{
		Name: "CRC-16/XMODEM", Width: 16, Poly: 0x1021,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x31C3,
	}

	// CRC8HEC is the ATM Header Error Control CRC-8 (ITU-T I.432.1):
	// polynomial x^8+x^2+x+1 with the 0x55 coset XORed into the result
	// to improve cell delineation.
	CRC8HEC = Params{
		Name: "CRC-8/HEC", Width: 8, Poly: 0x07,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0x55,
		Check: 0xA1,
	}

	// CRC8 is the plain SMBus CRC-8 over the same polynomial, without
	// the HEC coset.
	CRC8 = Params{
		Name: "CRC-8", Width: 8, Poly: 0x07,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0xF4,
	}

	// CRC64 is the CRC-64/XZ (GO-ISO-reflected family) algorithm,
	// included to let the harness scale the "effective bits" comparison
	// above 32 bits.
	CRC64 = Params{
		Name: "CRC-64/XZ", Width: 64, Poly: 0x42F0E1EBA9EA3693,
		Init: 0xFFFFFFFFFFFFFFFF, RefIn: true, RefOut: true,
		XorOut: 0xFFFFFFFFFFFFFFFF, Check: 0x995DC9BBDF1939FA,
	}

	// The 5G NR polynomials (3GPP TS 38.212 §5.1, discussed in "Some
	// comments about CRC selection for the 5G NR specification").  All
	// are MSB-first, zero preset, zero XorOut — the raw algebraic CRC.

	// CRC24A attaches to NR transport blocks (also LTE; RevEng
	// CRC-24/LTE-A).  gCRC24A(D) = D^24+D^23+D^18+D^17+D^14+D^11+D^10+
	// D^7+D^6+D^5+D^4+D^3+D+1.
	CRC24A = Params{
		Name: "CRC-24/A", Width: 24, Poly: 0x864CFB,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0xCDE703,
	}

	// CRC24B attaches to NR code-block segments (RevEng CRC-24/LTE-B).
	// gCRC24B(D) = D^24+D^23+D^6+D^5+D+1.
	CRC24B = Params{
		Name: "CRC-24/B", Width: 24, Poly: 0x800063,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x23EF52,
	}

	// CRC24C is the NR addition for polar-coded downlink control —
	// chosen for distance-4 at control-channel lengths.  gCRC24C(D) =
	// D^24+D^23+D^21+D^20+D^17+D^15+D^13+D^12+D^8+D^4+D^2+D+1.
	CRC24C = Params{
		Name: "CRC-24/C", Width: 24, Poly: 0xB2B117,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0xF48279,
	}

	// CRC11NR protects NR uplink control information (polar-coded
	// PUCCH).  gCRC11(D) = D^11+D^10+D^9+D^5+1.
	CRC11NR = Params{
		Name: "CRC-11/NR", Width: 11, Poly: 0x621,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x5CA,
	}

	// CRC6NR is the short NR uplink-control CRC.  gCRC6(D) = D^6+D^5+1.
	CRC6NR = Params{
		Name: "CRC-6/NR", Width: 6, Poly: 0x21,
		Init: 0, RefIn: false, RefOut: false, XorOut: 0,
		Check: 0x15,
	}

	// CRC32K is Koopman's CRC-32K (normal form 0x741B8CD7), selected by
	// exhaustive search for HD=6 payloads an order of magnitude longer
	// than IEEE CRC-32 allows; run with the familiar reflected
	// 0xFFFFFFFF preset/XorOut convention so it drops into the same
	// framing as CRC-32.
	CRC32K = Params{
		Name: "CRC-32K", Width: 32, Poly: 0x741B8CD7,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0x2D3DD0AE,
	}

	// CRC32K2 is Koopman's CRC-32K/2 (normal form 0x32583499), the
	// HD=4-to-long-lengths alternative from the same search family.
	CRC32K2 = Params{
		Name: "CRC-32K2", Width: 32, Poly: 0x32583499,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0xEEB754CC,
	}
)

// Generator returns the full generator polynomial of p, including the
// implicit x^Width term.
func (p Params) Generator() gf2poly.Poly {
	return gf2poly.FromCRC(p.Poly&p.Mask(), p.Width)
}

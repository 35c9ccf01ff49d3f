package crc

import "encoding/binary"

// Slicing-by-8: the one production engine, behind every Table entry
// point.  Eight derived tables let it consume 8 input bytes per step
// instead of 1.  slice[j][b] is
// the raw register (in the table's internal alignment) that results
// from processing byte b followed by j zero bytes, starting from a zero
// register; because the register evolution is linear over GF(2), the
// register advance over 8 message bytes decomposes into one table
// lookup per byte of (register ⊕ message), summed with XOR.
type slicing struct {
	tabs [8][256]uint64
}

// buildSlicing derives the seven extra tables from the byte table.
func (t *Table) buildSlicing() *slicing {
	s := &slicing{}
	for b := 0; b < 256; b++ {
		s.tabs[0][b] = t.tab[b]
	}
	for j := 1; j < 8; j++ {
		for b := 0; b < 256; b++ {
			x := s.tabs[j-1][b]
			if t.params.RefIn {
				s.tabs[j][b] = t.tab[byte(x)] ^ x>>8
			} else {
				s.tabs[j][b] = t.tab[byte(x>>56)] ^ x<<8
			}
		}
	}
	return s
}

// updateSlicing advances the raw register over data using the sliced
// tables for the bulk and the scalar loop for the tail.
func (t *Table) updateSlicing(reg uint64, data []byte) uint64 {
	s := t.slice
	if t.params.RefIn {
		for len(data) >= 8 {
			v := reg ^ binary.LittleEndian.Uint64(data)
			reg = s.tabs[7][byte(v)] ^
				s.tabs[6][byte(v>>8)] ^
				s.tabs[5][byte(v>>16)] ^
				s.tabs[4][byte(v>>24)] ^
				s.tabs[3][byte(v>>32)] ^
				s.tabs[2][byte(v>>40)] ^
				s.tabs[1][byte(v>>48)] ^
				s.tabs[0][byte(v>>56)]
			data = data[8:]
		}
	} else {
		for len(data) >= 8 {
			v := reg ^ binary.BigEndian.Uint64(data)
			reg = s.tabs[7][byte(v>>56)] ^
				s.tabs[6][byte(v>>48)] ^
				s.tabs[5][byte(v>>40)] ^
				s.tabs[4][byte(v>>32)] ^
				s.tabs[3][byte(v>>24)] ^
				s.tabs[2][byte(v>>16)] ^
				s.tabs[1][byte(v>>8)] ^
				s.tabs[0][byte(v)]
			data = data[8:]
		}
	}
	return t.updateScalar(reg, data)
}

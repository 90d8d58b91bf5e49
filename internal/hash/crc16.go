// Package hash implements the CRC-16 data-block signatures used by the
// DVMC cache-coherence checker.
//
// The paper hashes cache blocks down to 16 bits before storing them in the
// Cache Epoch Table (CET) and Memory Epoch Table (MET) and before shipping
// them in Inform-Epoch messages. CRC-16 guarantees detection of any burst
// error shorter than 16 bits, so a single-bit or few-bit corruption of a
// block can never alias; blocks with >=16 erroneous bits alias with
// probability 1/65535.
package hash

import "encoding/binary"

// Poly is the CRC-16-CCITT generator polynomial (x^16 + x^12 + x^5 + 1) in
// reversed (LSB-first) representation.
const Poly = 0x8408

// Signature is a 16-bit hash of a data block, as stored in CETs, METs, and
// Inform-Epoch messages.
type Signature uint16

// tables drive the slicing-by-8 kernel: tables[0][b] is the register after
// shifting byte b through the polynomial bit by bit, and tables[k][b] the
// register after that byte is followed by k zero bytes. The CRC of eight
// bytes is then the XOR of eight lookups, one per byte, each in the table
// for the number of bytes that follow it.
var tables [8][256]uint16

func init() {
	for i := 0; i < 256; i++ {
		crc := uint16(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ Poly
			} else {
				crc >>= 1
			}
		}
		tables[0][i] = crc
	}
	for i := 0; i < 256; i++ {
		crc := tables[0][i]
		for k := 1; k < 8; k++ {
			crc = tables[0][byte(crc)] ^ crc>>8
			tables[k][i] = crc
		}
	}
}

// update8 absorbs one 8-byte word, taken in little-endian byte order.
//
//dvmc:hotpath
func update8(crc uint16, w uint64) uint16 {
	x := w ^ uint64(crc)
	return tables[7][byte(x)] ^ tables[6][byte(x>>8)] ^
		tables[5][byte(x>>16)] ^ tables[4][byte(x>>24)] ^
		tables[3][byte(x>>32)] ^ tables[2][byte(x>>40)] ^
		tables[1][byte(x>>48)] ^ tables[0][byte(x>>56)]
}

// update is the one CRC kernel: eight bytes per step, then the tail byte
// by byte.
//
//dvmc:hotpath
func update(crc uint16, p []byte) uint16 {
	for ; len(p) >= 8; p = p[8:] {
		crc = update8(crc, binary.LittleEndian.Uint64(p))
	}
	for _, b := range p {
		crc = tables[0][byte(crc)^b] ^ crc>>8
	}
	return crc
}

// Sum returns the CRC-16 signature of data.
func Sum(data []byte) Signature {
	return Signature(^update(0xffff, data))
}

// SumWords returns the CRC-16 signature of a block expressed as 64-bit
// words, hashing each word in little-endian byte order. It is equivalent to
// Sum over the same bytes but avoids materialising a byte slice on the hot
// path of the coherence checker.
func SumWords(words []uint64) Signature {
	var crc uint16 = 0xffff
	for _, w := range words {
		crc = update8(crc, w)
	}
	return Signature(^crc)
}

package pager

import (
	"hash/crc32"
	"math/bits"
)

// crcTable is the stdlib's CRC32-C table: the checksum every page carries,
// and the whole computation wherever the fold kernel does not run.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// castagnoli is the CRC32-C generator polynomial P without its x^32 term.
const castagnoli = 0x1EDC6F41

// foldMin is the shortest input the fold kernel takes: one block of eight
// 32-byte accumulators.
const foldMin = 256

// foldKeys move a 128-bit lane of the message T bits forward, for T = 2048
// (the kernel's 256-byte main step), 256 (one 32-byte step) and 128 (the
// last lane into its neighbour). A lane is two 64-bit halves H·x^64 + L;
// H·(x^(T+64) mod P) + L·(x^T mod P) is congruent to it moved forward and
// fits in one lane. The carry-less product of two bit-reflected 64-bit
// values comes out one bit short of a reflected 128-bit lane, so the pair
// stored for T is (x^(T+63) mod P, x^(T-1) mod P).
var foldKeys = [3][2]uint64{foldKey(2048), foldKey(256), foldKey(128)}

// foldKey returns the constant pair for a move of t bits, each constant
// bit-reflected into its 64-bit half: the coefficient of x^d is bit 63-d.
func foldKey(t int) [2]uint64 {
	return [2]uint64{
		bits.Reverse64(uint64(xPowMod(t + 63))),
		bits.Reverse64(uint64(xPowMod(t - 1))),
	}
}

// xPowMod returns x^n mod P, with the coefficient of x^d at bit d.
func xPowMod(n int) uint32 {
	v := uint64(1)
	for ; n > 0; n-- {
		v <<= 1
		if v&(1<<32) != 0 {
			v ^= 1<<32 | castagnoli
		}
	}
	return uint32(v)
}

// checksum is the CRC32-C of b, the sum seal stores and verify checks. It
// is crc32.Checksum(b, crcTable) on every input; inputs of foldMin bytes
// or more take the fold kernel where the CPU has one.
func checksum(b []byte) uint32 {
	if useFold && len(b) >= foldMin {
		return crcFold(b, &foldKeys)
	}
	return crc32.Checksum(b, crcTable)
}

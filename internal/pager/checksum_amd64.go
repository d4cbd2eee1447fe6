package pager

// useFold is whether the CPU runs the fold kernel: AVX2, VPCLMULQDQ,
// PCLMULQDQ and SSE4.2, with the OS saving the YMM registers.
var useFold = foldSupported()

// foldSupported reports the CPUID and XGETBV feature test.
func foldSupported() bool

// crcFold copies src into dst and returns the CRC32-C of src, folding 256
// bytes per step with VPCLMULQDQ into eight YMM accumulators and storing
// each 32-byte load as it goes; k is foldKeys. len(src) >= foldMin and
// len(dst) >= len(src); dst is src or does not overlap it.
//
//go:noescape
func crcFold(dst, src []byte, k *[3][2]uint64) uint32

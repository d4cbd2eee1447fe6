package pager

// useFold is whether the CPU runs the fold kernel: AVX2, VPCLMULQDQ,
// PCLMULQDQ and SSE4.2, with the OS saving the YMM registers.
var useFold = foldSupported()

// foldSupported reports the CPUID and XGETBV feature test.
func foldSupported() bool

// crcFold returns the CRC32-C of b, len(b) >= foldMin, folding 256 bytes
// per step with VPCLMULQDQ into eight YMM accumulators; k is foldKeys.
//
//go:noescape
func crcFold(b []byte, k *[3][2]uint64) uint32

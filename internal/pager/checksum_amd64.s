#include "textflag.h"

// FOLD moves acc's two 128-bit lanes forward by the span k was derived for
// and adds the register data: acc = H·k[0] + L·k[1] + data, lane by lane.
#define FOLD(k, acc, tmp, data) \
	VPCLMULQDQ $0x00, k, acc, tmp; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPXOR      data, tmp, tmp;     \
	VPXOR      tmp, acc, acc

// func foldSupported() bool
TEXT ·foldSupported(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1, ECX: PCLMULQDQ (1), SSE4.2 (20), OSXSAVE (27), AVX (28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18100002, CX
	CMPL CX, $0x18100002
	JNE  no

	// XCR0: the OS saves the XMM (1) and YMM (2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7, EBX: AVX2 (5); ECX: VPCLMULQDQ (10).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	ANDL $0x400, CX
	JZ   no
	MOVB $1, ret+0(FP)

no:
	RET

// COPY loads the 32 bytes at off(SI) into data and stores them at off(DI).
#define COPY(off, data) VMOVDQU off(SI), data; VMOVDQU data, off(DI)

// COPYFOLD copies the 32 bytes at off(SI) and folds them into acc: every
// byte the kernel sums, it also copies.
#define COPYFOLD(off, k, acc, tmp, data) COPY(off, data); FOLD(k, acc, tmp, data)

// func crcFold(dst, src []byte, k *[3][2]uint64) uint32
TEXT ·crcFold(SB), NOSPLIT, $0-60
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ k+48(FP), AX
	VBROADCASTI128 0(AX), Y8  // T = 2048
	VBROADCASTI128 16(AX), Y9 // T = 256
	VMOVDQU        32(AX), X10 // T = 128

	// The first 256 bytes, with the initial CRC ~0 added to the first four.
	COPY(0, Y0)
	COPY(32, Y1)
	COPY(64, Y2)
	COPY(96, Y3)
	COPY(128, Y4)
	COPY(160, Y5)
	COPY(192, Y6)
	COPY(224, Y7)
	MOVL    $0xffffffff, DX
	VMOVD   DX, X11
	VPXOR   Y11, Y0, Y0
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $256, CX

block:
	CMPQ CX, $256
	JB   merge
	COPYFOLD(0, Y8, Y0, Y11, Y12)
	COPYFOLD(32, Y8, Y1, Y13, Y14)
	COPYFOLD(64, Y8, Y2, Y11, Y12)
	COPYFOLD(96, Y8, Y3, Y13, Y14)
	COPYFOLD(128, Y8, Y4, Y11, Y12)
	COPYFOLD(160, Y8, Y5, Y13, Y14)
	COPYFOLD(192, Y8, Y6, Y11, Y12)
	COPYFOLD(224, Y8, Y7, Y13, Y14)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $256, CX
	JMP  block

	// The eight accumulators into Y0, then the remaining 32-byte steps.
merge:
	FOLD(Y9, Y0, Y11, Y1)
	FOLD(Y9, Y0, Y11, Y2)
	FOLD(Y9, Y0, Y11, Y3)
	FOLD(Y9, Y0, Y11, Y4)
	FOLD(Y9, Y0, Y11, Y5)
	FOLD(Y9, Y0, Y11, Y6)
	FOLD(Y9, Y0, Y11, Y7)

step:
	CMPQ CX, $32
	JB   lane
	COPYFOLD(0, Y9, Y0, Y11, Y12)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  step

	// The low lane into the high one, and the last 16 folded bytes out.
lane:
	VEXTRACTI128 $1, Y0, X1
	VPCLMULQDQ   $0x00, X10, X0, X11
	VPCLMULQDQ   $0x11, X10, X0, X0
	VPXOR        X1, X11, X11
	VPXOR        X11, X0, X0
	VMOVQ        X0, AX
	VPEXTRQ      $1, X0, BX
	VZEROUPPER

	// A CRC register of 0 over those 16 bytes and the tail of < 32 bytes,
	// which is copied as it is summed.
	XORL   DX, DX
	CRC32Q AX, DX
	CRC32Q BX, DX

tail8:
	CMPQ   CX, $8
	JB     tail1
	MOVQ   0(SI), R8
	MOVQ   R8, 0(DI)
	CRC32Q R8, DX
	ADDQ   $8, SI
	ADDQ   $8, DI
	SUBQ   $8, CX
	JMP    tail8

tail1:
	TESTQ   CX, CX
	JZ      done
	MOVBLZX 0(SI), R8
	MOVB    R8, 0(DI)
	CRC32B  R8, DX
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JMP     tail1

done:
	NOTL DX
	MOVL DX, ret+56(FP)
	RET

#include "textflag.h"

// FOLD moves acc's two 128-bit lanes forward by the span k was derived for
// and adds data: acc = H·k[0] + L·k[1] + data, lane by lane.
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

// func crcFold(b []byte, k *[3][2]uint64) uint32
TEXT ·crcFold(SB), NOSPLIT, $0-36
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	MOVQ k+24(FP), AX
	VBROADCASTI128 0(AX), Y8  // T = 2048
	VBROADCASTI128 16(AX), Y9 // T = 256
	VMOVDQU        32(AX), X10 // T = 128

	// The first 256 bytes, with the initial CRC ~0 added to the first four.
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	MOVL    $0xffffffff, DX
	VMOVD   DX, X11
	VPXOR   Y11, Y0, Y0
	ADDQ    $256, SI
	SUBQ    $256, CX

block:
	CMPQ CX, $256
	JB   merge
	FOLD(Y8, Y0, Y11, 0(SI))
	FOLD(Y8, Y1, Y12, 32(SI))
	FOLD(Y8, Y2, Y13, 64(SI))
	FOLD(Y8, Y3, Y14, 96(SI))
	FOLD(Y8, Y4, Y11, 128(SI))
	FOLD(Y8, Y5, Y12, 160(SI))
	FOLD(Y8, Y6, Y13, 192(SI))
	FOLD(Y8, Y7, Y14, 224(SI))
	ADDQ $256, SI
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
	FOLD(Y9, Y0, Y11, 0(SI))
	ADDQ $32, SI
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

	// A CRC register of 0 over those 16 bytes and the tail of < 32 bytes.
	XORL   DX, DX
	CRC32Q AX, DX
	CRC32Q BX, DX

tail8:
	CMPQ   CX, $8
	JB     tail1
	CRC32Q 0(SI), DX
	ADDQ   $8, SI
	SUBQ   $8, CX
	JMP    tail8

tail1:
	TESTQ  CX, CX
	JZ     done
	CRC32B 0(SI), DX
	INCQ   SI
	DECQ   CX
	JMP    tail1

done:
	NOTL DX
	MOVL DX, ret+32(FP)
	RET

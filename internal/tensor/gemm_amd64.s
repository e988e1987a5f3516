//go:build amd64 && !purego

#include "textflag.h"

// The GEMM tiles keep C in registers: accumulators start at +0, each p
// broadcasts one A value per row and multiplies it into the row of B, and
// the block is stored once after p = k-1. The multiply takes b as its first
// source and the add takes the product as its first source, which is the
// operand order of gemmTileGeneric's compiled scalar code, so even NaN
// payloads come out the same. Nothing is fused.
//
// Registers: DI c, R8 ldc, SI a, R9 ars, R10 aps, BX b, R11 ldb, CX k (the
// strides are scaled to bytes), R12 3*ars.

// func gemmTileAVX(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int)
//
// 4×16: row r accumulates in Y(2r) (columns 0-7) and Y(2r+1) (columns 8-15).
TEXT ·gemmTileAVX(SB), NOSPLIT, $0-64
	MOVQ	c+0(FP), DI
	MOVQ	ldc+8(FP), R8
	MOVQ	a+16(FP), SI
	MOVQ	ars+24(FP), R9
	MOVQ	aps+32(FP), R10
	MOVQ	b+40(FP), BX
	MOVQ	ldb+48(FP), R11
	MOVQ	k+56(FP), CX
	SHLQ	$2, R8
	SHLQ	$2, R9
	SHLQ	$2, R10
	SHLQ	$2, R11
	LEAQ	(R9)(R9*2), R12
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
	TESTQ	CX, CX
	JLE	avxstore

	PCALIGN	$32
avxloop:
	VMOVUPS	(BX), Y8
	VMOVUPS	32(BX), Y9
	VBROADCASTSS	(SI), Y10
	VMULPS	Y10, Y8, Y11
	VADDPS	Y0, Y11, Y0
	VMULPS	Y10, Y9, Y12
	VADDPS	Y1, Y12, Y1
	VBROADCASTSS	(SI)(R9*1), Y10
	VMULPS	Y10, Y8, Y11
	VADDPS	Y2, Y11, Y2
	VMULPS	Y10, Y9, Y12
	VADDPS	Y3, Y12, Y3
	VBROADCASTSS	(SI)(R9*2), Y10
	VMULPS	Y10, Y8, Y11
	VADDPS	Y4, Y11, Y4
	VMULPS	Y10, Y9, Y12
	VADDPS	Y5, Y12, Y5
	VBROADCASTSS	(SI)(R12*1), Y10
	VMULPS	Y10, Y8, Y11
	VADDPS	Y6, Y11, Y6
	VMULPS	Y10, Y9, Y12
	VADDPS	Y7, Y12, Y7
	ADDQ	R10, SI
	ADDQ	R11, BX
	DECQ	CX
	JNZ	avxloop

avxstore:
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	ADDQ	R8, DI
	VMOVUPS	Y2, (DI)
	VMOVUPS	Y3, 32(DI)
	ADDQ	R8, DI
	VMOVUPS	Y4, (DI)
	VMOVUPS	Y5, 32(DI)
	ADDQ	R8, DI
	VMOVUPS	Y6, (DI)
	VMOVUPS	Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmTileSSE2(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int)
//
// 4×8: row r accumulates in X(2r) (columns 0-3) and X(2r+1) (columns 4-7).
// Two-operand SSE overwrites its first source, so each product is formed in
// a copy of b and the sum in the product's register, then moved back.
TEXT ·gemmTileSSE2(SB), NOSPLIT, $0-64
	MOVQ	c+0(FP), DI
	MOVQ	ldc+8(FP), R8
	MOVQ	a+16(FP), SI
	MOVQ	ars+24(FP), R9
	MOVQ	aps+32(FP), R10
	MOVQ	b+40(FP), BX
	MOVQ	ldb+48(FP), R11
	MOVQ	k+56(FP), CX
	SHLQ	$2, R8
	SHLQ	$2, R9
	SHLQ	$2, R10
	SHLQ	$2, R11
	LEAQ	(R9)(R9*2), R12
	XORPS	X0, X0
	XORPS	X1, X1
	XORPS	X2, X2
	XORPS	X3, X3
	XORPS	X4, X4
	XORPS	X5, X5
	XORPS	X6, X6
	XORPS	X7, X7
	TESTQ	CX, CX
	JLE	ssestore

	PCALIGN	$32
sseloop:
	MOVUPS	(BX), X8
	MOVUPS	16(BX), X9
	MOVSS	(SI), X10
	SHUFPS	$0, X10, X10
	MOVAPS	X8, X11
	MULPS	X10, X11
	ADDPS	X0, X11
	MOVAPS	X11, X0
	MOVAPS	X9, X12
	MULPS	X10, X12
	ADDPS	X1, X12
	MOVAPS	X12, X1
	MOVSS	(SI)(R9*1), X10
	SHUFPS	$0, X10, X10
	MOVAPS	X8, X11
	MULPS	X10, X11
	ADDPS	X2, X11
	MOVAPS	X11, X2
	MOVAPS	X9, X12
	MULPS	X10, X12
	ADDPS	X3, X12
	MOVAPS	X12, X3
	MOVSS	(SI)(R9*2), X10
	SHUFPS	$0, X10, X10
	MOVAPS	X8, X11
	MULPS	X10, X11
	ADDPS	X4, X11
	MOVAPS	X11, X4
	MOVAPS	X9, X12
	MULPS	X10, X12
	ADDPS	X5, X12
	MOVAPS	X12, X5
	MOVSS	(SI)(R12*1), X10
	SHUFPS	$0, X10, X10
	MOVAPS	X8, X11
	MULPS	X10, X11
	ADDPS	X6, X11
	MOVAPS	X11, X6
	MOVAPS	X9, X12
	MULPS	X10, X12
	ADDPS	X7, X12
	MOVAPS	X12, X7
	ADDQ	R10, SI
	ADDQ	R11, BX
	DECQ	CX
	JNZ	sseloop

ssestore:
	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)
	ADDQ	R8, DI
	MOVUPS	X2, (DI)
	MOVUPS	X3, 16(DI)
	ADDQ	R8, DI
	MOVUPS	X4, (DI)
	MOVUPS	X5, 16(DI)
	ADDQ	R8, DI
	MOVUPS	X6, (DI)
	MOVUPS	X7, 16(DI)
	RET

// func axpy1(c *float32, n int, a *float32, aps int, b *float32, ldb, k int)
//
// The 1-row loop, scalar on purpose: serving batches run only this path, and
// it is the loop the compiler generates for axpy1Generic. The inner loop's
// head is aligned to 64 bytes (scripts/verify.sh checks it in the built
// binary), so its 7 instructions never straddle a cache line.
TEXT ·axpy1(SB), NOSPLIT, $0-56
	MOVQ	c+0(FP), DI
	MOVQ	n+8(FP), CX
	MOVQ	a+16(FP), SI
	MOVQ	aps+24(FP), R8
	MOVQ	b+32(FP), BX
	MOVQ	ldb+40(FP), R9
	MOVQ	k+48(FP), DX
	SHLQ	$2, R8
	SHLQ	$2, R9
	TESTQ	CX, CX
	JLE	done
	TESTQ	DX, DX
	JLE	done

row:
	MOVSS	(SI), X0
	XORQ	AX, AX
	PCALIGN	$64
loop:
	MOVSS	(BX)(AX*4), X1
	MULSS	X0, X1
	ADDSS	(DI)(AX*4), X1
	MOVSS	X1, (DI)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JLT	loop
	ADDQ	R8, SI
	ADDQ	R9, BX
	DECQ	DX
	JNZ	row

done:
	RET

// func osHasAVX() bool
TEXT ·osHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL	CX, $0x18000000
	JNE	noavx
	XORL	CX, CX
	XGETBV                  // XCR0 into DX:AX
	ANDL	$6, AX          // SSE (bit 1) | AVX (bit 2) state enabled
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET

noavx:
	MOVB	$0, ret+0(FP)
	RET

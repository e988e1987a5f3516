//go:build amd64 && !purego

#include "textflag.h"

// func axpy4(c0, c1, c2, c3, b *float32, n int, x0, x1, x2, x3 float32)
//
// c_r[j] += x_r * b[j] for r = 0..3, four j per iteration with MULPS/ADDPS
// and a MULSS/ADDSS tail for n%4. SSE2 only (the GOAMD64=v1 baseline), no
// FMA. Every lane matches axpy4Generic's compiled scalar code operand for
// operand: b[j] is the destination of the multiply and the product is the
// destination of the add, so even NaN payloads come out the same.
TEXT ·axpy4(SB), NOSPLIT, $0-64
	MOVQ	c0+0(FP), DI
	MOVQ	c1+8(FP), R8
	MOVQ	c2+16(FP), R9
	MOVQ	c3+24(FP), R10
	MOVQ	b+32(FP), SI
	MOVQ	n+40(FP), CX
	MOVSS	x0+48(FP), X0
	MOVSS	x1+52(FP), X1
	MOVSS	x2+56(FP), X2
	MOVSS	x3+60(FP), X3
	SHUFPS	$0, X0, X0
	SHUFPS	$0, X1, X1
	SHUFPS	$0, X2, X2
	SHUFPS	$0, X3, X3
	XORQ	AX, AX
	MOVQ	CX, DX
	ANDQ	$-4, DX
	JZ	tail

	// Legacy-SSE packed memory operands must be 16-byte aligned, so the
	// rows are loaded with MOVUPS instead of being added from memory.
	PCALIGN	$32
loop4:
	MOVUPS	(SI)(AX*4), X4
	MOVAPS	X4, X5
	MULPS	X0, X5
	MOVUPS	(DI)(AX*4), X9
	ADDPS	X9, X5
	MOVUPS	X5, (DI)(AX*4)
	MOVAPS	X4, X6
	MULPS	X1, X6
	MOVUPS	(R8)(AX*4), X10
	ADDPS	X10, X6
	MOVUPS	X6, (R8)(AX*4)
	MOVAPS	X4, X7
	MULPS	X2, X7
	MOVUPS	(R9)(AX*4), X11
	ADDPS	X11, X7
	MOVUPS	X7, (R9)(AX*4)
	MULPS	X3, X4
	MOVUPS	(R10)(AX*4), X12
	ADDPS	X12, X4
	MOVUPS	X4, (R10)(AX*4)
	ADDQ	$4, AX
	CMPQ	AX, DX
	JB	loop4

tail:
	CMPQ	AX, CX
	JAE	done

tail1:
	MOVSS	(SI)(AX*4), X4
	MOVAPS	X4, X5
	MULSS	X0, X5
	ADDSS	(DI)(AX*4), X5
	MOVSS	X5, (DI)(AX*4)
	MOVAPS	X4, X6
	MULSS	X1, X6
	ADDSS	(R8)(AX*4), X6
	MOVSS	X6, (R8)(AX*4)
	MOVAPS	X4, X7
	MULSS	X2, X7
	ADDSS	(R9)(AX*4), X7
	MOVSS	X7, (R9)(AX*4)
	MULSS	X3, X4
	ADDSS	(R10)(AX*4), X4
	MOVSS	X4, (R10)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JB	tail1

done:
	RET

// Width leaves of the generic kernels: SSE2 (MULPD/ADDPD, 2 float64
// lanes per register) and SSE (MULPS/ADDPS, 4 float32 lanes), both
// baseline amd64. See axpy_amd64.go for the bit-identity argument
// (independent lanes, one multiply rounding then one add rounding per
// element — the two roundings of the scalar loop). Buffers need no
// alignment. The Go wrappers check every offset these read or write.

#include "textflag.h"

// func axpy32SSE(dst, w []float32, v float32)
// dst[i] += v * w[i]: 8-lane blocks, then a scalar tail.
TEXT ·axpy32SSE(SB), NOSPLIT, $0-52
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	w_base+24(FP), SI
	MOVSS	v+48(FP), X0
	SHUFPS	$0x00, X0, X0
	XORQ	AX, AX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	JZ	tail
blk8:
	MOVUPS	(SI)(AX*4), X1
	MOVUPS	16(SI)(AX*4), X2
	MULPS	X0, X1
	MULPS	X0, X2
	MOVUPS	(DI)(AX*4), X3
	MOVUPS	16(DI)(AX*4), X4
	ADDPS	X1, X3
	ADDPS	X2, X4
	MOVUPS	X3, (DI)(AX*4)
	MOVUPS	X4, 16(DI)(AX*4)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
tail:
	CMPQ	AX, CX
	JGE	done
tail1:
	MOVSS	(SI)(AX*4), X1
	MULSS	X0, X1
	MOVSS	(DI)(AX*4), X2
	ADDSS	X1, X2
	MOVSS	X2, (DI)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
done:
	RET

// func axpy64SSE2(dst, w []float64, v float64)
// dst[i] += v * w[i]: 8-lane blocks in four registers, then a scalar
// tail.
TEXT ·axpy64SSE2(SB), NOSPLIT, $0-56
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	w_base+24(FP), SI
	MOVSD	v+48(FP), X0
	UNPCKLPD	X0, X0
	XORQ	AX, AX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	JZ	tail
blk8:
	MOVUPD	(SI)(AX*8), X1
	MOVUPD	16(SI)(AX*8), X2
	MOVUPD	32(SI)(AX*8), X3
	MOVUPD	48(SI)(AX*8), X4
	MULPD	X0, X1
	MULPD	X0, X2
	MULPD	X0, X3
	MULPD	X0, X4
	MOVUPD	(DI)(AX*8), X5
	MOVUPD	16(DI)(AX*8), X6
	MOVUPD	32(DI)(AX*8), X7
	MOVUPD	48(DI)(AX*8), X8
	ADDPD	X1, X5
	ADDPD	X2, X6
	ADDPD	X3, X7
	ADDPD	X4, X8
	MOVUPD	X5, (DI)(AX*8)
	MOVUPD	X6, 16(DI)(AX*8)
	MOVUPD	X7, 32(DI)(AX*8)
	MOVUPD	X8, 48(DI)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
tail:
	CMPQ	AX, CX
	JGE	done
tail1:
	MOVSD	(SI)(AX*8), X1
	MULSD	X0, X1
	MOVSD	(DI)(AX*8), X2
	ADDSD	X1, X2
	MOVSD	X2, (DI)(AX*8)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
done:
	RET

// func packedAccSkip32SSE(ci, ai, panel []float32)
// ci[0:8] += sum over p of ai[p]*panel[p*8:p*8+8], zero ai skipped.
// The UCOMISS/JP/JE pair skips only true zeros: a NaN multiplier sets
// PF and falls through to the multiply, matching the Go loop's
// av == 0 test.
TEXT ·packedAccSkip32SSE(SB), NOSPLIT, $0-72
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	MOVUPS	(DI), X0
	MOVUPS	16(DI), X1
	XORPS	X7, X7
	TESTQ	CX, CX
	JZ	accdone
accloop:
	MOVSS	(SI), X2
	UCOMISS	X7, X2
	JP	accwork
	JE	accnext
accwork:
	SHUFPS	$0x00, X2, X2
	MOVUPS	(BX), X3
	MOVUPS	16(BX), X4
	MULPS	X2, X3
	MULPS	X2, X4
	ADDPS	X3, X0
	ADDPS	X4, X1
accnext:
	ADDQ	$4, SI
	ADDQ	$32, BX
	DECQ	CX
	JNZ	accloop
accdone:
	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)
	RET

// func packedAccSkip64SSE2(ci, ai, panel []float64)
// packedAccSkip32SSE at float64: the 8 accumulators live in X0-X3.
TEXT ·packedAccSkip64SSE2(SB), NOSPLIT, $0-72
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	MOVUPD	(DI), X0
	MOVUPD	16(DI), X1
	MOVUPD	32(DI), X2
	MOVUPD	48(DI), X3
	XORPD	X9, X9
	TESTQ	CX, CX
	JZ	accdone
accloop:
	MOVSD	(SI), X4
	UCOMISD	X9, X4
	JP	accwork
	JE	accnext
accwork:
	UNPCKLPD	X4, X4
	MOVUPD	(BX), X5
	MOVUPD	16(BX), X6
	MOVUPD	32(BX), X7
	MOVUPD	48(BX), X8
	MULPD	X4, X5
	MULPD	X4, X6
	MULPD	X4, X7
	MULPD	X4, X8
	ADDPD	X5, X0
	ADDPD	X6, X1
	ADDPD	X7, X2
	ADDPD	X8, X3
accnext:
	ADDQ	$8, SI
	ADDQ	$64, BX
	DECQ	CX
	JNZ	accloop
accdone:
	MOVUPD	X0, (DI)
	MOVUPD	X1, 16(DI)
	MOVUPD	X2, 32(DI)
	MOVUPD	X3, 48(DI)
	RET

// func packedInto32SSE(ci, ai, panel []float32)
// ci[0:8] = sum over p of ai[p]*panel[p*8:p*8+8], dense (no skip).
TEXT ·packedInto32SSE(SB), NOSPLIT, $0-72
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	XORPS	X0, X0
	XORPS	X1, X1
	TESTQ	CX, CX
	JZ	intodone
intoloop:
	MOVSS	(SI), X2
	SHUFPS	$0x00, X2, X2
	MOVUPS	(BX), X3
	MOVUPS	16(BX), X4
	MULPS	X2, X3
	MULPS	X2, X4
	ADDPS	X3, X0
	ADDPS	X4, X1
	ADDQ	$4, SI
	ADDQ	$32, BX
	DECQ	CX
	JNZ	intoloop
intodone:
	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)
	RET

// func packedInto64SSE2(ci, ai, panel []float64)
// packedInto32SSE at float64: the 8 accumulators live in X0-X3.
TEXT ·packedInto64SSE2(SB), NOSPLIT, $0-72
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	XORPD	X0, X0
	XORPD	X1, X1
	XORPD	X2, X2
	XORPD	X3, X3
	TESTQ	CX, CX
	JZ	intodone
intoloop:
	MOVSD	(SI), X4
	UNPCKLPD	X4, X4
	MOVUPD	(BX), X5
	MOVUPD	16(BX), X6
	MOVUPD	32(BX), X7
	MOVUPD	48(BX), X8
	MULPD	X4, X5
	MULPD	X4, X6
	MULPD	X4, X7
	MULPD	X4, X8
	ADDPD	X5, X0
	ADDPD	X6, X1
	ADDPD	X7, X2
	ADDPD	X8, X3
	ADDQ	$8, SI
	ADDQ	$64, BX
	DECQ	CX
	JNZ	intoloop
intodone:
	MOVUPD	X0, (DI)
	MOVUPD	X1, 16(DI)
	MOVUPD	X2, 32(DI)
	MOVUPD	X3, 48(DI)
	RET

// The footprint walks below share one register plan:
//   X0      v in every lane
//   CX, DX  n, and n rounded down to a multiple of 8
//   R8-R10  rows left along d, h, w
//   R11/R12 accumulator/kernel pointer at the current d plane
//   R13/BX  accumulator/kernel pointer at the current (d, h) line
//   DI/SI   accumulator/kernel pointer at the current row
//   AX      lane index inside a row, scratch between rows
// A w step moves the kernel row up by n and the mirrored accumulator
// row down by n; the d and h strides come from the footprint.

// func scatterBox32(dst, w []float32, v float32, f footprint)
TEXT ·scatterBox32(SB), NOSPLIT, $0-136
	MOVQ	dst_base+0(FP), R11
	MOVQ	w_base+24(FP), R12
	MOVSS	v+48(FP), X0
	SHUFPS	$0x00, X0, X0
	MOVQ	f_n+56(FP), CX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	MOVQ	f_d0+88(FP), AX
	LEAQ	(R11)(AX*4), R11
	MOVQ	f_w0+112(FP), AX
	LEAQ	(R12)(AX*4), R12
	MOVQ	f_nd+64(FP), R8
plane:
	MOVQ	R11, R13
	MOVQ	R12, BX
	MOVQ	f_nh+72(FP), R9
line:
	MOVQ	R13, DI
	MOVQ	BX, SI
	MOVQ	f_nw+80(FP), R10
row:
	XORQ	AX, AX
	TESTQ	DX, DX
	JZ	tail
blk8:
	MOVUPS	(SI)(AX*4), X1
	MOVUPS	16(SI)(AX*4), X2
	MULPS	X0, X1
	MULPS	X0, X2
	MOVUPS	(DI)(AX*4), X3
	MOVUPS	16(DI)(AX*4), X4
	ADDPS	X1, X3
	ADDPS	X2, X4
	MOVUPS	X3, (DI)(AX*4)
	MOVUPS	X4, 16(DI)(AX*4)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
tail:
	CMPQ	AX, CX
	JGE	rowdone
tail1:
	MOVSS	(SI)(AX*4), X1
	MULSS	X0, X1
	MOVSS	(DI)(AX*4), X2
	ADDSS	X1, X2
	MOVSS	X2, (DI)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
rowdone:
	LEAQ	(SI)(CX*4), SI
	MOVQ	CX, AX
	SHLQ	$2, AX
	SUBQ	AX, DI
	DECQ	R10
	JNZ	row
	MOVQ	f_dh+104(FP), AX
	LEAQ	(R13)(AX*4), R13
	MOVQ	f_wh+128(FP), AX
	LEAQ	(BX)(AX*4), BX
	DECQ	R9
	JNZ	line
	MOVQ	f_dd+96(FP), AX
	LEAQ	(R11)(AX*4), R11
	MOVQ	f_wd+120(FP), AX
	LEAQ	(R12)(AX*4), R12
	DECQ	R8
	JNZ	plane
	RET

// func scatterBox64(dst, w []float64, v float64, f footprint)
TEXT ·scatterBox64(SB), NOSPLIT, $0-136
	MOVQ	dst_base+0(FP), R11
	MOVQ	w_base+24(FP), R12
	MOVSD	v+48(FP), X0
	UNPCKLPD	X0, X0
	MOVQ	f_n+56(FP), CX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	MOVQ	f_d0+88(FP), AX
	LEAQ	(R11)(AX*8), R11
	MOVQ	f_w0+112(FP), AX
	LEAQ	(R12)(AX*8), R12
	MOVQ	f_nd+64(FP), R8
plane:
	MOVQ	R11, R13
	MOVQ	R12, BX
	MOVQ	f_nh+72(FP), R9
line:
	MOVQ	R13, DI
	MOVQ	BX, SI
	MOVQ	f_nw+80(FP), R10
row:
	XORQ	AX, AX
	TESTQ	DX, DX
	JZ	tail
blk8:
	MOVUPD	(SI)(AX*8), X1
	MOVUPD	16(SI)(AX*8), X2
	MOVUPD	32(SI)(AX*8), X3
	MOVUPD	48(SI)(AX*8), X4
	MULPD	X0, X1
	MULPD	X0, X2
	MULPD	X0, X3
	MULPD	X0, X4
	MOVUPD	(DI)(AX*8), X5
	MOVUPD	16(DI)(AX*8), X6
	MOVUPD	32(DI)(AX*8), X7
	MOVUPD	48(DI)(AX*8), X8
	ADDPD	X1, X5
	ADDPD	X2, X6
	ADDPD	X3, X7
	ADDPD	X4, X8
	MOVUPD	X5, (DI)(AX*8)
	MOVUPD	X6, 16(DI)(AX*8)
	MOVUPD	X7, 32(DI)(AX*8)
	MOVUPD	X8, 48(DI)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
tail:
	CMPQ	AX, CX
	JGE	rowdone
tail1:
	MOVSD	(SI)(AX*8), X1
	MULSD	X0, X1
	MOVSD	(DI)(AX*8), X2
	ADDSD	X1, X2
	MOVSD	X2, (DI)(AX*8)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
rowdone:
	LEAQ	(SI)(CX*8), SI
	MOVQ	CX, AX
	SHLQ	$3, AX
	SUBQ	AX, DI
	DECQ	R10
	JNZ	row
	MOVQ	f_dh+104(FP), AX
	LEAQ	(R13)(AX*8), R13
	MOVQ	f_wh+128(FP), AX
	LEAQ	(BX)(AX*8), BX
	DECQ	R9
	JNZ	line
	MOVQ	f_dd+96(FP), AX
	LEAQ	(R11)(AX*8), R11
	MOVQ	f_wd+120(FP), AX
	LEAQ	(R12)(AX*8), R12
	DECQ	R8
	JNZ	plane
	RET

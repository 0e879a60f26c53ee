#include "textflag.h"

// Packed SSE2 bodies of the loops in kernels.go. A lane multiplies with
// MULPD and accumulates with ADDPD or SUBPD, exactly the scalar loop's
// two roundings in its order: no fused multiply-add, which would round
// once, and no VEX-encoded instruction, which the amd64 baseline lacks.

// func dotfSSE2(a, b []float64) (s0, s1, s2, s3 float64)
TEXT ·dotfSSE2(SB), NOSPLIT, $0-80
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPD X0, X0 // s0, s1
	XORPD X1, X1 // s2, s3
	SHRQ  $2, CX
	JZ    dotfdone

dotfloop:
	MOVUPD (SI), X2
	MOVUPD 16(SI), X3
	MOVUPD (DI), X4
	MOVUPD 16(DI), X5
	MULPD  X4, X2
	MULPD  X5, X3
	ADDPD  X2, X0
	ADDPD  X3, X1
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   CX
	JNZ    dotfloop

dotfdone:
	MOVSD  X0, s0+48(FP)
	MOVHPD X0, s1+56(FP)
	MOVSD  X1, s2+64(FP)
	MOVHPD X1, s3+72(FP)
	RET

// func dotf2SSE2(a0, a1, b []float64) (p0, p1, p2, p3, q0, q1, q2, q3 float64)
TEXT ·dotf2SSE2(SB), NOSPLIT, $0-136
	MOVQ  a0_base+0(FP), SI
	MOVQ  a1_base+24(FP), DX
	MOVQ  b_base+48(FP), DI
	MOVQ  b_len+56(FP), CX
	XORPD X0, X0 // p0, p1
	XORPD X1, X1 // p2, p3
	XORPD X2, X2 // q0, q1
	XORPD X3, X3 // q2, q3
	SHRQ  $2, CX
	JZ    dotf2done

dotf2loop:
	MOVUPD (DI), X4
	MOVUPD 16(DI), X5
	MOVUPD (SI), X6
	MOVUPD 16(SI), X7
	MOVUPD (DX), X8
	MOVUPD 16(DX), X9
	MULPD  X4, X6
	MULPD  X5, X7
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X6, X0
	ADDPD  X7, X1
	ADDPD  X8, X2
	ADDPD  X9, X3
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	DECQ   CX
	JNZ    dotf2loop

dotf2done:
	MOVSD  X0, p0+72(FP)
	MOVHPD X0, p1+80(FP)
	MOVSD  X1, p2+88(FP)
	MOVHPD X1, p3+96(FP)
	MOVSD  X2, q0+104(FP)
	MOVHPD X2, q1+112(FP)
	MOVSD  X3, q2+120(FP)
	MOVHPD X3, q3+128(FP)
	RET

// func tileRowSSE2(l, x []float64, s *[SolveTile]float64)
TEXT ·tileRowSSE2(SB), NOSPLIT, $0-56
	MOVQ   l_base+0(FP), SI
	MOVQ   l_len+8(FP), CX
	MOVQ   x_base+24(FP), DI
	MOVQ   s+48(FP), DX
	MOVUPD (DX), X0   // s0, s1
	MOVUPD 16(DX), X1 // s2, s3
	MOVUPD 32(DX), X2 // s4, s5
	MOVUPD 48(DX), X3 // s6, s7
	TESTQ  CX, CX
	JZ     tiledone

tileloop:
	MOVSD    (SI), X4
	UNPCKLPD X4, X4 // l[j] in both lanes
	MOVUPD   (DI), X5
	MOVUPD   16(DI), X6
	MOVUPD   32(DI), X7
	MOVUPD   48(DI), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	SUBPD    X5, X0
	SUBPD    X6, X1
	SUBPD    X7, X2
	SUBPD    X8, X3
	ADDQ     $8, SI
	ADDQ     $64, DI
	DECQ     CX
	JNZ      tileloop

tiledone:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	RET

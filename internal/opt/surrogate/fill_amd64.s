#include "textflag.h"

// func negArgsSSE2(tile, xt []float64, xs [][]float64, sqrt5, l float64)
//
// For each row xi of xs, the tile's eight candidates sit in X0–X3, two
// to a register: for each dimension d in order, the candidates'
// coordinates xt[d*8:d*8+8] minus the broadcast xi[d], squared, added
// to the sums; then SQRTPD, MULPD by sqrt5, DIVPD by l and the sign
// flip, and the eight values stored at tile[i*8:]. Each operation
// rounds as its scalar counterpart in negArgsGo does.
TEXT ·negArgsSSE2(SB), NOSPLIT, $0-88
	MOVQ     tile_base+0(FP), DI
	MOVQ     xt_base+24(FP), SI
	MOVQ     xt_len+32(FP), R9
	MOVQ     xs_base+48(FP), R8
	MOVQ     xs_len+56(FP), CX
	MOVSD    sqrt5+72(FP), X12
	UNPCKLPD X12, X12
	MOVSD    l+80(FP), X13
	UNPCKLPD X13, X13
	PCMPEQL  X14, X14
	PSLLQ    $63, X14 // the sign bit in both lanes
	SHLQ     $3, R9   // bytes of xt: 64 per dimension
	TESTQ    CX, CX
	JZ       negdone

negrow:
	MOVQ  (R8), BX // &xi[0]
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ  AX, AX

negdim:
	MOVSD    (BX), X4
	UNPCKLPD X4, X4 // xi[d] in both lanes
	MOVUPD   (SI)(AX*1), X5
	MOVUPD   16(SI)(AX*1), X6
	MOVUPD   32(SI)(AX*1), X7
	MOVUPD   48(SI)(AX*1), X8
	SUBPD    X4, X5
	SUBPD    X4, X6
	SUBPD    X4, X7
	SUBPD    X4, X8
	MULPD    X5, X5
	MULPD    X6, X6
	MULPD    X7, X7
	MULPD    X8, X8
	ADDPD    X5, X0
	ADDPD    X6, X1
	ADDPD    X7, X2
	ADDPD    X8, X3
	ADDQ     $8, BX
	ADDQ     $64, AX
	CMPQ     AX, R9
	JLT      negdim

	SQRTPD X0, X0
	SQRTPD X1, X1
	SQRTPD X2, X2
	SQRTPD X3, X3
	MULPD  X12, X0
	MULPD  X12, X1
	MULPD  X12, X2
	MULPD  X12, X3
	DIVPD  X13, X0
	DIVPD  X13, X1
	DIVPD  X13, X2
	DIVPD  X13, X3
	XORPD  X14, X0
	XORPD  X14, X1
	XORPD  X14, X2
	XORPD  X14, X3
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $24, R8 // next slice header
	DECQ   CX
	JNZ    negrow

negdone:
	RET

DATA maternconst<>+0(SB)/8, $1.0
DATA maternconst<>+8(SB)/8, $1.0
DATA maternconst<>+16(SB)/8, $3.0
DATA maternconst<>+24(SB)/8, $3.0
GLOBL maternconst<>(SB), RODATA, $32

// MATERN finishes two kernel values at off in the tile, s = -ns then
// ((1 + s) + s*s/3) * e, stores them, folds them into their largest
// values in km, and adds each times alpha[i] to its mean sum in m.
#define MATERN(off, m, km) \
	MOVUPD off(DI), X4 \
	XORPD  X14, X4 \
	MOVAPD X4, X5 \
	MULPD  X4, X5 \
	DIVPD  X13, X5 \
	ADDPD  X12, X4 \
	ADDPD  X5, X4 \
	MOVUPD off(SI), X6 \
	MULPD  X6, X4 \
	MOVUPD X4, off(DI) \
	MAXPD  X4, km \
	MULPD  X11, X4 \
	ADDPD  X4, m

// func maternTileSSE2(tile, e, alpha []float64, m, km *[8]float64)
TEXT ·maternTileSSE2(SB), NOSPLIT, $0-88
	MOVQ    tile_base+0(FP), DI
	MOVQ    e_base+24(FP), SI
	MOVQ    alpha_base+48(FP), BX
	MOVQ    alpha_len+56(FP), CX
	MOVQ    m+72(FP), DX
	MOVQ    km+80(FP), R8
	MOVUPD  (DX), X0
	MOVUPD  16(DX), X1
	MOVUPD  32(DX), X2
	MOVUPD  48(DX), X3
	MOVUPD  (R8), X7
	MOVUPD  16(R8), X8
	MOVUPD  32(R8), X9
	MOVUPD  48(R8), X10
	MOVUPD  maternconst<>+0(SB), X12
	MOVUPD  maternconst<>+16(SB), X13
	PCMPEQL X14, X14
	PSLLQ   $63, X14
	TESTQ   CX, CX
	JZ      materndone

maternrow:
	MOVSD    (BX), X11
	UNPCKLPD X11, X11 // alpha[i] in both lanes
	MATERN(0, X0, X7)
	MATERN(16, X1, X8)
	MATERN(32, X2, X9)
	MATERN(48, X3, X10)
	ADDQ     $64, DI
	ADDQ     $64, SI
	ADDQ     $8, BX
	DECQ     CX
	JNZ      maternrow

materndone:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X7, (R8)
	MOVUPD X8, 16(R8)
	MOVUPD X9, 32(R8)
	MOVUPD X10, 48(R8)
	RET

#include "textflag.h"

// The AVX kernels of kernels_amd64.go, run only when useAVXFMA is set.
// They use no AVX2 instruction. Only expAVXFMA fuses a multiply with an
// add, as math.Exp's own AVX+FMA path does; the others multiply with
// VMULPD and accumulate with VADDPD or VSUBPD, exactly the Go loops'
// two roundings in their order.

// expconst holds the constants of math.Exp's avxfma branch
// ($GOROOT/src/math/exp_amd64.s), each repeated in four lanes so that
// an instruction can take it as a 256-bit memory operand.
#define EXPCONST(off, v) \
	DATA expconst<>+(off)(SB)/8, v \
	DATA expconst<>+(off+8)(SB)/8, v \
	DATA expconst<>+(off+16)(SB)/8, v \
	DATA expconst<>+(off+24)(SB)/8, v

EXPCONST(0, $1.4426950408889634073599246810018920) // log2(e)
EXPCONST(32, $0.69314718055966295651160180568695068359375) // upper half of ln 2
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12) // lower half of ln 2
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5)
EXPCONST(160, $1.9841269841269841270e-4)
EXPCONST(192, $1.3888888888888888889e-3)
EXPCONST(224, $8.3333333333333333333e-3)
EXPCONST(256, $4.1666666666666666667e-2)
EXPCONST(288, $1.6666666666666666667e-1)
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $700.0)                 // the kernel's range: |x| <= 700
EXPCONST(448, $0x7fffffffffffffff)    // sign mask
DATA expconst<>+480(SB)/8, $0x000003ff000003ff // the exponent bias, four int32s
DATA expconst<>+488(SB)/8, $0x000003ff000003ff
GLOBL expconst<>(SB), RODATA, $496

// func expAVXFMA(dst, src []float64) (done int)
//
// Four lanes at a time, each lane runs archExp's avxfma branch for an
// argument in [-700, 700]: k = round(x·log2e), two fused reductions by
// k·ln2, the Taylor polynomial of x/16 in fused multiply-adds, three
// squarings back (x *= x+2), a last fused one that adds 1, and the
// scaling by 2^k, which cannot leave the normal range there. It stops
// before the first group of four holding a lane outside that range, or
// a NaN, and returns how many elements it wrote. len(src) must be a
// multiple of 4 and len(dst) >= len(src).
TEXT ·expAVXFMA(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      expdone
	VMOVUPD expconst<>+416(SB), Y14 // 700
	VMOVUPD expconst<>+448(SB), Y15 // sign mask

exploop:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  Y15, Y0, Y1
	VCMPPD  $0x12, Y14, Y1, Y1 // |x| <= 700, false for NaN
	VMOVMSKPD Y1, DX
	CMPL    DX, $15
	JNE     expdone
	VMULPD  expconst<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2          // k, rounded to nearest as CVTSD2SL does
	VCVTDQ2PD X2, Y1
	VFNMADD231PD expconst<>+32(SB), Y1, Y0
	VFNMADD231PD expconst<>+64(SB), Y1, Y0
	VMULPD  expconst<>+96(SB), Y0, Y0
	VMOVUPD expconst<>+128(SB), Y1
	VFMADD213PD expconst<>+160(SB), Y0, Y1
	VFMADD213PD expconst<>+192(SB), Y0, Y1
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expconst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expconst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expconst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expconst<>+384(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y1, Y0
	// 2^k as (k+1023)<<52, one 128-bit half at a time.
	VPADDD  expconst<>+480(SB), X2, X2
	VPMOVZXDQ X2, X3
	VPSHUFD $0x0e, X2, X2
	VPMOVZXDQ X2, X2
	VPSLLQ  $52, X3, X3
	VPSLLQ  $52, X2, X2
	VINSERTF128 $1, X2, Y3, Y3
	VMULPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     exploop

expdone:
	VZEROUPPER
	MOVQ    AX, done+48(FP)
	RET

// func tileRow2AVX(l, x0, x1 []float64, s0, s1 *[SolveTile]float64)
//
// tileRow for two tiles at once: the sixteen subtraction chains of
// s0 and s1 sit in four YMM registers and share one broadcast of l[j].
// Each lane still multiplies, rounded, then subtracts, rounded, in j
// order. len(x0) and len(x1) must be >= len(l)*SolveTile.
TEXT ·tileRow2AVX(SB), NOSPLIT, $0-88
	MOVQ    l_base+0(FP), SI
	MOVQ    l_len+8(FP), CX
	MOVQ    x0_base+24(FP), DI
	MOVQ    x1_base+48(FP), R8
	MOVQ    s0+72(FP), DX
	MOVQ    s1+80(FP), R9
	VMOVUPD (DX), Y0   // s0[0:4]
	VMOVUPD 32(DX), Y1 // s0[4:8]
	VMOVUPD (R9), Y2   // s1[0:4]
	VMOVUPD 32(R9), Y3 // s1[4:8]
	TESTQ   CX, CX
	JZ      tile2done

tile2loop:
	VBROADCASTSD (SI), Y4
	VMULPD  (DI), Y4, Y5
	VMULPD  32(DI), Y4, Y6
	VMULPD  (R8), Y4, Y7
	VMULPD  32(R8), Y4, Y8
	VSUBPD  Y5, Y0, Y0
	VSUBPD  Y6, Y1, Y1
	VSUBPD  Y7, Y2, Y2
	VSUBPD  Y8, Y3, Y3
	ADDQ    $8, SI
	ADDQ    $64, DI
	ADDQ    $64, R8
	DECQ    CX
	JNZ     tile2loop

tile2done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VZEROUPPER
	RET

// The Cholesky's AVX kernels. Every lane multiplies with VMULPD or
// VMULSD and accumulates with VADDPD or VADDSD, the Go loop's two
// roundings in its order; each reduction is dotf's (s0+s1)+(s2+s3).

// func solve4AVX(x, l []float64, n, w int)
//
// solveRowsDot on four rows of x, n values apart: for each column j < w
// in order, the four rows' dotf(x[:j], l[j*n:][:j]) run side by side,
// one YMM accumulator per row over the whole quads, then the tail into
// its low lane, then (x[j] - d) / l[j*n+j] is stored back before
// column j+1 reads it. len(x) >= 3*n+w, len(l) >= (w-1)*n+w.
TEXT ·solve4AVX(SB), NOSPLIT, $0-64
	MOVQ  x_base+0(FP), SI
	MOVQ  l_base+24(FP), DI
	MOVQ  n+48(FP), BX
	MOVQ  w+56(FP), CX
	SHLQ  $3, BX          // row stride in bytes
	LEAQ  (SI)(BX*1), R8  // row 1
	LEAQ  (SI)(BX*2), R9  // row 2
	LEAQ  (R8)(BX*2), R10 // row 3
	XORQ  DX, DX          // j*8
	SHLQ  $3, CX          // w*8
	TESTQ CX, CX
	JZ    solvedone

solvecol:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DX, R11
	ANDQ   $-32, R11 // the quads end at (j&^3)*8
	XORQ   AX, AX
	TESTQ  R11, R11
	JZ     solvetail

solvequad:
	VMOVUPD (DI)(AX*1), Y8
	VMULPD  (SI)(AX*1), Y8, Y9
	VMULPD  (R8)(AX*1), Y8, Y10
	VMULPD  (R9)(AX*1), Y8, Y11
	VMULPD  (R10)(AX*1), Y8, Y12
	VADDPD  Y9, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     solvequad

solvetail:
	// s2, s3 of each row, before a scalar op clears the upper half.
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	CMPQ         AX, DX
	JGE          solvereduce

solvetailloop:
	VMOVSD (DI)(AX*1), X8
	VMULSD (SI)(AX*1), X8, X9
	VMULSD (R8)(AX*1), X8, X10
	VMULSD (R9)(AX*1), X8, X11
	VMULSD (R10)(AX*1), X8, X12
	VADDSD X9, X0, X0
	VADDSD X10, X1, X1
	VADDSD X11, X2, X2
	VADDSD X12, X3, X3
	ADDQ   $8, AX
	CMPQ   AX, DX
	JLT    solvetailloop

solvereduce:
	VMOVSD (DI)(DX*1), X8 // l[j*n+j]

// SOLVEFINISH reduces a row's accumulators, (s0+s1, s2+s3) by the
// horizontal add and then their sum, and finishes the row's entry j.
#define SOLVEFINISH(acc, hi, row) \
	VHADDPD   hi, acc, acc \
	VUNPCKHPD acc, acc, X9 \
	VADDSD    X9, acc, acc \
	VMOVSD    (row)(DX*1), X9 \
	VSUBSD    acc, X9, X9 \
	VDIVSD    X8, X9, X9 \
	VMOVSD    X9, (row)(DX*1)

	SOLVEFINISH(X0, X4, SI)
	SOLVEFINISH(X1, X5, R8)
	SOLVEFINISH(X2, X6, R9)
	SOLVEFINISH(X3, X7, R10)
	ADDQ BX, DI
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  solvecol

solvedone:
	VZEROUPPER
	RET

// func trail4x2AVX(x, c []float64, n, pairs int)
//
// trailDot's update of four rows of x, n values apart, by the columns
// whose panel segments are c[q*n:][:cholBlock], two at a time: the
// eight entries' accumulators are Y0–Y7 (row r, column k in Y(2r+k)),
// the two column quads Y8 and Y9 are loaded once for the four rows,
// and each row's two results are reduced and subtracted as one pair.
// Segments are exactly cholBlock = 64 values, 512 bytes, with no tail.
TEXT ·trail4x2AVX(SB), NOSPLIT, $0-64
	MOVQ  x_base+0(FP), SI
	MOVQ  c_base+24(FP), DI
	MOVQ  n+48(FP), BX
	MOVQ  pairs+56(FP), CX
	SHLQ  $3, BX          // row stride in bytes
	LEAQ  (SI)(BX*1), R8  // row 1
	LEAQ  (SI)(BX*2), R9  // row 2
	LEAQ  (R8)(BX*2), R10 // row 3
	XORQ  DX, DX          // column q's output offset, q*8
	TESTQ CX, CX
	JZ    traildone

trailpair:
	LEAQ   (DI)(BX*1), R11 // column q+1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

#define TRAILROW(row, acc0, acc1) \
	VMOVUPD (row)(AX*1), Y10 \
	VMULPD  Y8, Y10, Y11 \
	VMULPD  Y9, Y10, Y12 \
	VADDPD  Y11, acc0, acc0 \
	VADDPD  Y12, acc1, acc1

trailquad:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (R11)(AX*1), Y9
	TRAILROW(SI, Y0, Y1)
	TRAILROW(R8, Y2, Y3)
	TRAILROW(R9, Y4, Y5)
	TRAILROW(R10, Y6, Y7)
	ADDQ    $32, AX
	CMPQ    AX, $512
	JLT     trailquad

// TRAILFINISH reduces a row's two entries together: the horizontal add
// gives (s0+s1, t0+t1, s2+s3, t2+t3), the add of its halves both sums.
#define TRAILFINISH(row, acc0, acc1, lo0, lo1) \
	VHADDPD      acc1, acc0, acc0 \
	VEXTRACTF128 $1, acc0, lo1 \
	VADDPD       lo1, lo0, lo0 \
	VMOVUPD      512(row)(DX*1), lo1 \
	VSUBPD       lo0, lo1, lo1 \
	VMOVUPD      lo1, 512(row)(DX*1)

	TRAILFINISH(SI, Y0, Y1, X0, X1)
	TRAILFINISH(R8, Y2, Y3, X2, X3)
	TRAILFINISH(R9, Y4, Y5, X4, X5)
	TRAILFINISH(R10, Y6, Y7, X6, X7)
	LEAQ (DI)(BX*2), DI
	ADDQ $16, DX
	DECQ CX
	JNZ  trailpair

traildone:
	VZEROUPPER
	RET

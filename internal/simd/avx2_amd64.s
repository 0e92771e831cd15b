#include "textflag.h"

// The AVX2 line kernels. Each performs, for every output element, the IEEE
// operations of its Go loop in the Go order, one rounding each and no fused
// multiply-add, so results are == to the Go loops (TestSEMKernelsMatchGo).

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func matVecsAVX2(y, at, x []float64, rows, cols, lines, ystride, xstride int)
//
// Per line, the rows go in blocks of up to sixteen: four vector sums Y0-Y3
// (fewer for a short last block) start at +0, and for each column c in turn
// add at[c·rows + r..r+3]·x[c], so lane r sums row r in column order. The last
// vector of a block is loaded and stored under the mask Y15.
//
// Registers: DI the line's y, SI its x, R8 at, R9 rows, R10 cols, R11 lines
// left, R12 rows·8 (a column of at), R13 xstride·8, BX the block's first
// row; in a block AX walks at's columns, DX the line's x, CX counts the
// columns and R14 points at the block's outputs.
TEXT ·matVecsAVX2(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ at_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ rows+72(FP), R9
	MOVQ cols+80(FP), R10
	MOVQ lines+88(FP), R11
	MOVQ R9, R12
	SHLQ $3, R12
	MOVQ xstride+104(FP), R13
	SHLQ $3, R13

mvline:
	TESTQ R11, R11
	JLE   mvdone
	XORQ  BX, BX

mvblock:
	MOVQ R9, CX
	SUBQ BX, CX                  // rows left in the line
	JLE  mvnext
	MOVQ $4, AX                  // lanes of the last vector
	MOVQ $4, DX                  // vectors in the block
	CMPQ CX, $16
	JGE  mvmask
	LEAQ 3(CX), DX
	SHRQ $2, DX
	LEAQ -1(DX), AX
	SHLQ $2, AX
	NEGQ AX
	ADDQ CX, AX

mvmask:
	SHLQ $5, AX
	LEAQ laneMask<>(SB), R14
	VMOVDQU (R14)(AX*1), Y15
	LEAQ (R8)(BX*8), AX
	LEAQ (DI)(BX*8), R14
	MOVQ R10, CX
	CMPQ DX, $2
	JLT  mv1
	JEQ  mv2
	CMPQ DX, $3
	JEQ  mv3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, DX

mv4col:
	VBROADCASTSD (DX), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(AX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(AX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMASKMOVPD 96(AX), Y15, Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R12, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  mv4col
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMASKMOVPD Y3, Y15, 96(R14)
	ADDQ $16, BX
	JMP  mvblock

mv3:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ SI, DX

mv3col:
	VBROADCASTSD (DX), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(AX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMASKMOVPD 64(AX), Y15, Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	ADDQ R12, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  mv3col
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMASKMOVPD Y2, Y15, 64(R14)
	JMP  mvnext

mv2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, DX

mv2col:
	VBROADCASTSD (DX), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMASKMOVPD 32(AX), Y15, Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	ADDQ R12, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  mv2col
	VMOVUPD Y0, (R14)
	VMASKMOVPD Y1, Y15, 32(R14)
	JMP  mvnext

mv1:
	VXORPD Y0, Y0, Y0
	MOVQ SI, DX

mv1col:
	VBROADCASTSD (DX), Y4
	VMASKMOVPD (AX), Y15, Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ R12, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  mv1col
	VMASKMOVPD Y0, Y15, (R14)

mvnext:
	MOVQ ystride+96(FP), AX
	LEAQ (DI)(AX*8), DI
	ADDQ R13, SI
	DECQ R11
	JMP  mvline

mvdone:
	VZEROUPPER
	RET

// CT_MAC adds one row's products of the current column to its two vector
// sums: ya += a·Y8, yb += a·Y9, with a broadcast from off.
#define CT_MAC(off, ya, yb) \
	VBROADCASTSD off, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, ya, ya; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, yb, yb

// CT_MAC4 adds the products of the current column for the block's four rows
// (a's rows at AX, AX+R14, AX+2·R14 and AX+R13).
#define CT_MAC4 \
	CT_MAC((AX), Y0, Y1); \
	CT_MAC((AX)(R14*1), Y2, Y3); \
	CT_MAC((AX)(R14*2), Y4, Y5); \
	CT_MAC((AX)(R13*1), Y6, Y7)

// CT_BLOCK points AX at a's row CX and DX at the chunk in src's column 0,
// and sets R9 to the column count.
#define CT_BLOCK \
	MOVQ CX, AX; \
	IMULQ R14, AX; \
	ADDQ R8, AX; \
	LEAQ (SI)(BX*1), DX; \
	MOVQ cols+80(FP), R9

// CT_DST points DX at the chunk in dst's row CX and R9 three rows further.
#define CT_DST \
	MOVQ CX, DX; \
	IMULQ R11, DX; \
	ADDQ DI, DX; \
	ADDQ BX, DX; \
	LEAQ (DX)(R11*2), R9; \
	ADDQ R11, R9

// func contractAVX2(dst, src, a []float64, rows, cols, inner, outer int)
//
// Per outer plane, the inner lanes go in chunks of eight, two vectors; the
// last chunk's loads and stores are masked by Y13 and Y14 (lanes past inner
// load +0 and are never stored). Per chunk the output rows go in blocks of
// four, Y0-Y7 holding row r+q's two vectors in Y(2q), Y(2q+1), then one at a
// time in Y0, Y1. Every sum starts at +0 and, for each column c in turn,
// adds a[r,c]·src[c] without fusing: contractGo's operations in its order.
//
// Registers: DI the plane's dst, SI its src, R8 a, R11 inner·8 (a row of
// src or dst), R12 planes left, R14 cols·8 (a row of a), R13 3·cols·8, R10
// the bytes of full chunks in a row, BX the chunk's byte offset, CX the row;
// in a block AX walks a's column, DX src's rows and R9 counts the columns.
TEXT ·contractAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ a_base+48(FP), R8
	MOVQ cols+80(FP), R14
	SHLQ $3, R14
	LEAQ (R14)(R14*2), R13
	MOVQ inner+88(FP), R11
	SHLQ $3, R11
	MOVQ R11, R10
	ANDQ $-64, R10
	MOVQ outer+96(FP), R12

ctplane:
	XORQ BX, BX

ctchunk:
	CMPQ BX, R10
	JGE  cttail
	XORQ CX, CX

ctfull4:
	MOVQ rows+72(FP), AX
	SUBQ CX, AX
	CMPQ AX, $4
	JLT  ctfull1
	CT_BLOCK
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

ctfull4col:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	CT_MAC4
	ADDQ $8, AX
	ADDQ R11, DX
	DECQ R9
	JNZ  ctfull4col
	CT_DST
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (DX)(R11*2)
	VMOVUPD Y5, 32(DX)(R11*2)
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	ADDQ $4, CX
	JMP  ctfull4

ctfull1:
	CMPQ CX, rows+72(FP)
	JGE  ctnextchunk
	CT_BLOCK
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

ctfull1col:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	CT_MAC((AX), Y0, Y1)
	ADDQ $8, AX
	ADDQ R11, DX
	DECQ R9
	JNZ  ctfull1col
	CT_DST
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	INCQ CX
	JMP  ctfull1

ctnextchunk:
	ADDQ $64, BX
	JMP  ctchunk

// The last chunk, of 1-7 lanes: Y13 masks its first vector and Y14 its
// second.
cttail:
	MOVQ R11, AX
	SUBQ BX, AX
	JLE  ctnextplane
	SHRQ $3, AX
	MOVQ $4, DX
	CMPQ AX, DX
	CMOVQLT AX, DX
	SUBQ DX, AX
	SHLQ $5, DX
	SHLQ $5, AX
	LEAQ laneMask<>(SB), R9
	VMOVDQU (R9)(DX*1), Y13
	VMOVDQU (R9)(AX*1), Y14
	XORQ CX, CX

cttail4:
	MOVQ rows+72(FP), AX
	SUBQ CX, AX
	CMPQ AX, $4
	JLT  cttail1
	CT_BLOCK
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

cttail4col:
	VMASKMOVPD (DX), Y13, Y8
	VMASKMOVPD 32(DX), Y14, Y9
	CT_MAC4
	ADDQ $8, AX
	ADDQ R11, DX
	DECQ R9
	JNZ  cttail4col
	CT_DST
	VMASKMOVPD Y0, Y13, (DX)
	VMASKMOVPD Y1, Y14, 32(DX)
	VMASKMOVPD Y2, Y13, (DX)(R11*1)
	VMASKMOVPD Y3, Y14, 32(DX)(R11*1)
	VMASKMOVPD Y4, Y13, (DX)(R11*2)
	VMASKMOVPD Y5, Y14, 32(DX)(R11*2)
	VMASKMOVPD Y6, Y13, (R9)
	VMASKMOVPD Y7, Y14, 32(R9)
	ADDQ $4, CX
	JMP  cttail4

cttail1:
	CMPQ CX, rows+72(FP)
	JGE  ctnextplane
	CT_BLOCK
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

cttail1col:
	VMASKMOVPD (DX), Y13, Y8
	VMASKMOVPD 32(DX), Y14, Y9
	CT_MAC((AX), Y0, Y1)
	ADDQ $8, AX
	ADDQ R11, DX
	DECQ R9
	JNZ  cttail1col
	CT_DST
	VMASKMOVPD Y0, Y13, (DX)
	VMASKMOVPD Y1, Y14, 32(DX)
	INCQ CX
	JMP  cttail1

ctnextplane:
	MOVQ cols+80(FP), AX
	IMULQ R11, AX
	ADDQ AX, SI
	MOVQ rows+72(FP), AX
	IMULQ R11, AX
	ADDQ AX, DI
	DECQ R12
	JNZ  ctplane
	VZEROUPPER
	RET

// func sweepAVX2(out []float64, scale float64, vals []float64, cols []int, src []float64, base, stride int) (ok bool)
//
// First every column's offset off = base + cols[p]·stride must satisfy
// 0 <= off <= len(src) - len(out), or nothing is written. Then per pair of
// columns, c0 = scale·vals[p] and c1 = scale·vals[p+1], and four elements per
// vector: out + (c0·x0 + c1·x1); a last odd column adds c·x. The vector past
// the last multiple of four is masked (Y15).
//
// Registers: DI out, R8 len(out), SI vals, R9 len(vals), R10 cols, R11 src,
// R12 base, R13 stride, R14 len(out) rounded down to a multiple of four, X14
// scale, CX the column p, AX and DX the columns' src rows, BX the element.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-121
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R8
	MOVQ vals_base+32(FP), SI
	MOVQ vals_len+40(FP), R9
	MOVQ cols_base+56(FP), R10
	MOVQ src_base+80(FP), R11
	MOVQ base+104(FP), R12
	MOVQ stride+112(FP), R13
	TESTQ R9, R9
	JEQ   swok
	CMPQ cols_len+64(FP), R9
	JLT  swbad
	MOVQ src_len+88(FP), R14
	SUBQ R8, R14                 // the largest offset
	JLT  swbad
	XORQ CX, CX

swcheck:
	MOVQ  (R10)(CX*8), AX
	IMULQ R13, AX
	ADDQ  R12, AX
	CMPQ  AX, R14
	JHI   swbad                  // unsigned: negative offsets fail too
	INCQ  CX
	CMPQ  CX, R9
	JLT   swcheck

	MOVQ R8, AX
	ANDQ $3, AX
	SHLQ $5, AX
	LEAQ laneMask<>(SB), DX
	VMOVDQU (DX)(AX*1), Y15
	MOVQ R8, R14
	ANDQ $-4, R14
	VMOVSD scale+24(FP), X14
	XORQ CX, CX

swpair:
	LEAQ 1(CX), AX
	CMPQ AX, R9
	JGE  swsingle
	VMULSD (SI)(CX*8), X14, X0
	VBROADCASTSD X0, Y0
	VMULSD 8(SI)(CX*8), X14, X1
	VBROADCASTSD X1, Y1
	MOVQ  (R10)(CX*8), AX
	IMULQ R13, AX
	ADDQ  R12, AX
	LEAQ  (R11)(AX*8), AX
	MOVQ  8(R10)(CX*8), DX
	IMULQ R13, DX
	ADDQ  R12, DX
	LEAQ  (R11)(DX*8), DX
	XORQ  BX, BX

swvec2:
	CMPQ BX, R14
	JGE  swtail2
	VMULPD  (AX)(BX*8), Y0, Y2
	VMULPD  (DX)(BX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VADDPD  (DI)(BX*8), Y2, Y2
	VMOVUPD Y2, (DI)(BX*8)
	ADDQ $4, BX
	JMP  swvec2

swtail2:
	CMPQ BX, R8
	JGE  swnext
	VMASKMOVPD (AX)(BX*8), Y15, Y2
	VMULPD Y0, Y2, Y2
	VMASKMOVPD (DX)(BX*8), Y15, Y3
	VMULPD Y1, Y3, Y3
	VADDPD Y3, Y2, Y2
	VMASKMOVPD (DI)(BX*8), Y15, Y3
	VADDPD Y3, Y2, Y2
	VMASKMOVPD Y2, Y15, (DI)(BX*8)

swnext:
	ADDQ $2, CX
	JMP  swpair

swsingle:
	CMPQ CX, R9
	JGE  swok
	VMULSD (SI)(CX*8), X14, X0
	VBROADCASTSD X0, Y0
	MOVQ  (R10)(CX*8), AX
	IMULQ R13, AX
	ADDQ  R12, AX
	LEAQ  (R11)(AX*8), AX
	XORQ  BX, BX

swvec1:
	CMPQ BX, R14
	JGE  swtail1
	VMULPD  (AX)(BX*8), Y0, Y2
	VADDPD  (DI)(BX*8), Y2, Y2
	VMOVUPD Y2, (DI)(BX*8)
	ADDQ $4, BX
	JMP  swvec1

swtail1:
	CMPQ BX, R8
	JGE  swok
	VMASKMOVPD (AX)(BX*8), Y15, Y2
	VMULPD Y0, Y2, Y2
	VMASKMOVPD (DI)(BX*8), Y15, Y3
	VADDPD Y3, Y2, Y2
	VMASKMOVPD Y2, Y15, (DI)(BX*8)

swok:
	MOVB $1, ok+120(FP)
	VZEROUPPER
	RET

swbad:
	MOVB $0, ok+120(FP)
	RET

// SR_COEF sets yc to scale·val[p+k] in every lane (voff = 8k).
#define SR_COEF(voff, xc, yc) \
	VMULSD voff(R10)(CX*8), X8, xc; \
	VBROADCASTSD xc, yc

// SR_COL points reg at the chunk in column colIdx[p+k]'s source line
// (coff = 8k).
#define SR_COL(coff, reg) \
	MOVQ  coff(R9)(CX*8), reg; \
	IMULQ R13, reg; \
	ADDQ  R11, reg; \
	ADDQ  R14, reg

// SR_PAIR adds one vector of a column pair to its sum: acc + (c0·x0 + c1·x1),
// as Sweep adds to out; SR_PAIRM does it under a mask (masked lanes load +0).
#define SR_PAIR(off, acc) \
	VMULPD off(AX), Y4, Y6; \
	VMULPD off(DX), Y5, Y7; \
	VADDPD Y7, Y6, Y6; \
	VADDPD acc, Y6, acc

#define SR_PAIRM(off, mask, acc) \
	VMASKMOVPD off(AX), mask, Y6; \
	VMULPD Y4, Y6, Y6; \
	VMASKMOVPD off(DX), mask, Y7; \
	VMULPD Y5, Y7, Y7; \
	VADDPD Y7, Y6, Y6; \
	VADDPD acc, Y6, acc

// SR_ONE adds one vector of a last odd column: acc + c·x; SR_ONEM masked.
#define SR_ONE(off, acc) \
	VMULPD off(AX), Y4, Y6; \
	VADDPD acc, Y6, acc

#define SR_ONEM(off, mask, acc) \
	VMASKMOVPD off(AX), mask, Y6; \
	VMULPD Y4, Y6, Y6; \
	VADDPD acc, Y6, acc

// func sweepRowsAVX2(out []float64, scale float64, rowPtr, colIdx []int, val, src []float64, n, maxCol int) (done int)
//
// Per row i, first lo = rowPtr[i] <= hi = rowPtr[i+1] <= min(len(val),
// len(colIdx)) and every column colIdx[lo:hi] <= maxCol, or the kernel stops
// before the row. Then per chunk of sixteen lanes of the row's output line,
// four vector sums Y0-Y3 load the chunk of out, add c0·x0 + c1·x1 for each
// pair of columns in turn and c·x for a last odd column, and are stored: the
// operations of Sweep on that line, in its order. The last chunk of a line,
// of 1-15 lanes, loads and stores under the masks Y12-Y15.
//
// Registers: DI the row's output line, BX the row i, R8 rowPtr, R9 colIdx,
// R10 val, R11 src, R13 n·8 (a line), X8 scale, SI lo, R12 hi, R14 the
// chunk's byte offset in a line, CX the column p, AX and DX the columns'
// chunks.
TEXT ·sweepRowsAVX2(SB), NOSPLIT, $0-152
	MOVQ out_base+0(FP), DI
	MOVQ rowPtr_base+32(FP), R8
	MOVQ colIdx_base+56(FP), R9
	MOVQ val_base+80(FP), R10
	MOVQ src_base+104(FP), R11
	MOVQ n+128(FP), R13
	SHLQ $3, R13
	VMOVSD scale+24(FP), X8
	XORQ BX, BX

srrow:
	MOVQ rowPtr_len+40(FP), AX
	DECQ AX
	CMPQ BX, AX
	JGE  srstop
	MOVQ (R8)(BX*8), SI          // lo
	MOVQ 8(R8)(BX*8), R12        // hi
	MOVQ val_len+88(FP), AX
	MOVQ colIdx_len+64(FP), DX
	CMPQ DX, AX
	CMOVQLT DX, AX
	CMPQ R12, AX
	JHI  srstop                  // unsigned: negative pointers fail too
	CMPQ SI, R12
	JHI  srstop
	MOVQ SI, CX

srcheck:
	CMPQ CX, R12
	JGE  srgo
	MOVQ (R9)(CX*8), AX
	CMPQ AX, maxCol+136(FP)
	JHI  srstop                  // unsigned: negative columns fail too
	INCQ CX
	JMP  srcheck

srgo:
	XORQ R14, R14

srchunk:
	MOVQ R13, AX
	SUBQ R14, AX                 // bytes left in the line
	JLE  srnext
	CMPQ AX, $128
	JLT  srtail
	VMOVUPD (DI)(R14*1), Y0
	VMOVUPD 32(DI)(R14*1), Y1
	VMOVUPD 64(DI)(R14*1), Y2
	VMOVUPD 96(DI)(R14*1), Y3
	MOVQ SI, CX

srpair:
	LEAQ 1(CX), AX
	CMPQ AX, R12
	JGE  srsingle
	SR_COEF(0, X4, Y4)
	SR_COEF(8, X5, Y5)
	SR_COL(0, AX)
	SR_COL(8, DX)
	SR_PAIR(0, Y0)
	SR_PAIR(32, Y1)
	SR_PAIR(64, Y2)
	SR_PAIR(96, Y3)
	ADDQ $2, CX
	JMP  srpair

srsingle:
	CMPQ CX, R12
	JGE  srstore
	SR_COEF(0, X4, Y4)
	SR_COL(0, AX)
	SR_ONE(0, Y0)
	SR_ONE(32, Y1)
	SR_ONE(64, Y2)
	SR_ONE(96, Y3)

srstore:
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)
	VMOVUPD Y2, 64(DI)(R14*1)
	VMOVUPD Y3, 96(DI)(R14*1)
	ADDQ $128, R14
	JMP  srchunk

// The last chunk, of 1-15 lanes: lane q of Y12-Y15 is set when the chunk
// has more than q lanes.
srtail:
	SHRQ $3, AX
	VMOVQ AX, X10
	VPBROADCASTQ X10, Y10
	VMOVDQU laneIdx<>(SB), Y11
	VMOVDQU laneStep<>(SB), Y9
	VPCMPGTQ Y11, Y10, Y12
	VPADDQ Y9, Y11, Y11
	VPCMPGTQ Y11, Y10, Y13
	VPADDQ Y9, Y11, Y11
	VPCMPGTQ Y11, Y10, Y14
	VPADDQ Y9, Y11, Y11
	VPCMPGTQ Y11, Y10, Y15
	VMASKMOVPD (DI)(R14*1), Y12, Y0
	VMASKMOVPD 32(DI)(R14*1), Y13, Y1
	VMASKMOVPD 64(DI)(R14*1), Y14, Y2
	VMASKMOVPD 96(DI)(R14*1), Y15, Y3
	MOVQ SI, CX

srmpair:
	LEAQ 1(CX), AX
	CMPQ AX, R12
	JGE  srmsingle
	SR_COEF(0, X4, Y4)
	SR_COEF(8, X5, Y5)
	SR_COL(0, AX)
	SR_COL(8, DX)
	SR_PAIRM(0, Y12, Y0)
	SR_PAIRM(32, Y13, Y1)
	SR_PAIRM(64, Y14, Y2)
	SR_PAIRM(96, Y15, Y3)
	ADDQ $2, CX
	JMP  srmpair

srmsingle:
	CMPQ CX, R12
	JGE  srmstore
	SR_COEF(0, X4, Y4)
	SR_COL(0, AX)
	SR_ONEM(0, Y12, Y0)
	SR_ONEM(32, Y13, Y1)
	SR_ONEM(64, Y14, Y2)
	SR_ONEM(96, Y15, Y3)

srmstore:
	VMASKMOVPD Y0, Y12, (DI)(R14*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R14*1)
	VMASKMOVPD Y2, Y14, 64(DI)(R14*1)
	VMASKMOVPD Y3, Y15, 96(DI)(R14*1)

srnext:
	ADDQ R13, DI
	INCQ BX
	JMP  srrow

srstop:
	MOVQ BX, done+144(FP)
	VZEROUPPER
	RET

// BAND_LANE checks row i+l of a vector group (SI points at rowPtr[i]): lo =
// rowPtr[i+l] < hi = rowPtr[i+l+1] <= R12, columns one contiguous run c0 ..
// c0+nnz-1 with 0 <= c0 <= len(x) - nnz. A row that fails sends the group to
// the one-row path. It saves &val[lo] and &x[c0] in the frame, broadcasts nnz
// into ynnz and keeps the group's largest nnz in R14.
#define BAND_LANE(lo, hi, pv, px, ynnz) \
	MOVQ lo(SI), AX; \
	MOVQ hi(SI), DX; \
	CMPQ DX, R12; \
	JHI  bdrows; \
	CMPQ AX, DX; \
	JCC  bdrows; \
	SUBQ AX, DX; \
	MOVQ (R9)(AX*8), CX; \
	LEAQ (AX)(DX*1), R8; \
	MOVQ -8(R9)(R8*8), R8; \
	SUBQ CX, R8; \
	INCQ R8; \
	CMPQ R8, DX; \
	JNE  bdrows; \
	MOVQ R13, R8; \
	SUBQ DX, R8; \
	JLT  bdrows; \
	CMPQ CX, R8; \
	JHI  bdrows; \
	LEAQ (R10)(AX*8), AX; \
	MOVQ AX, pv; \
	LEAQ (R11)(CX*8), CX; \
	MOVQ CX, px; \
	CMPQ DX, R14; \
	CMOVQGT DX, R14; \
	VMOVQ DX, X15; \
	VPBROADCASTQ X15, ynnz

// BAND_PRODUCT loads four products of one lane, val·x, under the mask
// nnz > q (Y8 holds q..q+3): past the row's end both loads give +0.
#define BAND_PRODUCT(pv, px, ynnz, yp, yx) \
	MOVQ pv, AX; \
	MOVQ px, DX; \
	VPCMPGTQ Y8, ynnz, Y15; \
	VMASKMOVPD (AX)(SI*1), Y15, yp; \
	VMASKMOVPD (DX)(SI*1), Y15, yx; \
	VMULPD yx, yp, yp

// func bandAVX2(y []float64, c float64, rowPtr, colIdx []int, val, x []float64) (done int)
//
// Each row's sum s is added to y as y + c·s. A vector group is four rows i..i+3 whose columns are contiguous runs. Per
// block of four columns, lane l's products P_l = val·x come from two masked
// loads; the 4×4 transpose of P_0..P_3 gives T_0..T_3, T_q holding each row's
// q-th product of the block, and the sums Y10 (from +0) add T_0, T_1, T_2,
// T_3 in turn. A lane past its row's end adds +0, which leaves its sum
// unchanged: a sum started at +0 is never -0. Rows that are not a vector
// group go one at a time (bdrows), contiguous or through the column index.
//
// Registers: DI y, BX the row i, SI &rowPtr[i] and then the block's byte
// offset, R9 colIdx, R10 val, R11 x, R12 min(len(val), len(colIdx)), R13
// len(x), R14 the group's largest nnz, then its blocks; Y8 q, Y9 4, Y11-Y14
// the lanes' nnz. The frame holds the lanes' &val[lo] and &x[c0].
TEXT ·bandAVX2(SB), NOSPLIT, $64-136
	MOVQ y_base+0(FP), DI
	MOVQ colIdx_base+56(FP), R9
	MOVQ val_base+80(FP), R10
	MOVQ x_base+104(FP), R11
	MOVQ val_len+88(FP), R12
	MOVQ colIdx_len+64(FP), AX
	CMPQ AX, R12
	CMOVQLT AX, R12
	MOVQ x_len+112(FP), R13
	XORQ BX, BX

bdgroup:
	MOVQ y_len+8(FP), AX
	SUBQ BX, AX
	JLE  bdstop
	CMPQ AX, $4
	JLT  bdrows
	MOVQ rowPtr_base+32(FP), SI
	LEAQ (SI)(BX*8), SI
	XORQ R14, R14
	BAND_LANE(0, 8, pv0-8(SP), px0-40(SP), Y11)
	BAND_LANE(8, 16, pv1-16(SP), px1-48(SP), Y12)
	BAND_LANE(16, 24, pv2-24(SP), px2-56(SP), Y13)
	BAND_LANE(24, 32, pv3-32(SP), px3-64(SP), Y14)
	ADDQ $3, R14
	SHRQ $2, R14
	VMOVDQU laneIdx<>(SB), Y8
	VMOVDQU laneStep<>(SB), Y9
	VXORPD Y10, Y10, Y10
	XORQ SI, SI

bdblock:
	BAND_PRODUCT(pv0-8(SP), px0-40(SP), Y11, Y0, Y4)
	BAND_PRODUCT(pv1-16(SP), px1-48(SP), Y12, Y1, Y5)
	BAND_PRODUCT(pv2-24(SP), px2-56(SP), Y13, Y2, Y6)
	BAND_PRODUCT(pv3-32(SP), px3-64(SP), Y14, Y3, Y7)
	VUNPCKLPD Y1, Y0, Y4         // P0[0] P1[0] P0[2] P1[2]
	VUNPCKHPD Y1, Y0, Y5         // P0[1] P1[1] P0[3] P1[3]
	VUNPCKLPD Y3, Y2, Y6         // P2[0] P3[0] P2[2] P3[2]
	VUNPCKHPD Y3, Y2, Y7         // P2[1] P3[1] P2[3] P3[3]
	VPERM2F128 $0x20, Y6, Y4, Y0 // T0
	VPERM2F128 $0x20, Y7, Y5, Y1 // T1
	VPERM2F128 $0x31, Y6, Y4, Y2 // T2
	VPERM2F128 $0x31, Y7, Y5, Y3 // T3
	VADDPD Y0, Y10, Y10
	VADDPD Y1, Y10, Y10
	VADDPD Y2, Y10, Y10
	VADDPD Y3, Y10, Y10
	VPADDQ Y9, Y8, Y8
	ADDQ $32, SI
	DECQ R14
	JNZ  bdblock
	VBROADCASTSD c+24(FP), Y4
	VMULPD Y4, Y10, Y10
	VADDPD (DI)(BX*8), Y10, Y10
	VMOVUPD Y10, (DI)(BX*8)
	ADDQ $4, BX
	JMP  bdgroup

// One row at a time, up to the group's end min(i+4, len(y)).
bdrows:
	MOVQ rowPtr_base+32(FP), R8
	MOVQ y_len+8(FP), R14
	LEAQ 4(BX), AX
	CMPQ AX, R14
	CMOVQLT AX, R14

bdrow:
	CMPQ BX, R14
	JGE  bdgroup
	MOVQ (R8)(BX*8), AX          // lo
	MOVQ 8(R8)(BX*8), DX         // hi
	CMPQ DX, R12
	JHI  bdstop
	CMPQ AX, DX
	JCC  bdstop
	VXORPD X0, X0, X0
	MOVQ (R9)(AX*8), CX          // c0
	MOVQ -8(R9)(DX*8), SI        // the last column
	SUBQ CX, SI
	INCQ SI
	SUBQ AX, DX                  // nnz
	CMPQ SI, DX
	JNE  bdgather
	MOVQ R13, SI
	SUBQ DX, SI
	JLT  bdstop
	CMPQ CX, SI
	JHI  bdstop
	LEAQ (R10)(AX*8), AX
	LEAQ (R11)(CX*8), CX

bdrun:
	VMOVSD (AX), X1
	VMULSD (CX), X1, X1
	VADDSD X1, X0, X0
	ADDQ $8, AX
	ADDQ $8, CX
	DECQ DX
	JNZ  bdrun
	JMP  bdstore

bdgather:
	LEAQ (R10)(AX*8), SI
	LEAQ (R9)(AX*8), AX

bdgloop:
	MOVQ (AX), CX
	CMPQ CX, R13
	JCC  bdstop                  // unsigned: negative columns fail too
	VMOVSD (SI), X1
	VMULSD (R11)(CX*8), X1, X1
	VADDSD X1, X0, X0
	ADDQ $8, AX
	ADDQ $8, SI
	DECQ DX
	JNZ  bdgloop

bdstore:
	VMULSD c+24(FP), X0, X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  bdrow

bdstop:
	MOVQ BX, done+128(FP)
	VZEROUPPER
	RET

// laneMask row k has its first k quadwords set.
DATA laneMask<>+0x00(SB)/8, $0
DATA laneMask<>+0x08(SB)/8, $0
DATA laneMask<>+0x10(SB)/8, $0
DATA laneMask<>+0x18(SB)/8, $0
DATA laneMask<>+0x20(SB)/8, $-1
DATA laneMask<>+0x28(SB)/8, $0
DATA laneMask<>+0x30(SB)/8, $0
DATA laneMask<>+0x38(SB)/8, $0
DATA laneMask<>+0x40(SB)/8, $-1
DATA laneMask<>+0x48(SB)/8, $-1
DATA laneMask<>+0x50(SB)/8, $0
DATA laneMask<>+0x58(SB)/8, $0
DATA laneMask<>+0x60(SB)/8, $-1
DATA laneMask<>+0x68(SB)/8, $-1
DATA laneMask<>+0x70(SB)/8, $-1
DATA laneMask<>+0x78(SB)/8, $0
DATA laneMask<>+0x80(SB)/8, $-1
DATA laneMask<>+0x88(SB)/8, $-1
DATA laneMask<>+0x90(SB)/8, $-1
DATA laneMask<>+0x98(SB)/8, $-1
GLOBL laneMask<>(SB), RODATA|NOPTR, $160

// laneIdx is 0, 1, 2, 3 and laneStep 4 in every lane.
DATA laneIdx<>+0x00(SB)/8, $0
DATA laneIdx<>+0x08(SB)/8, $1
DATA laneIdx<>+0x10(SB)/8, $2
DATA laneIdx<>+0x18(SB)/8, $3
GLOBL laneIdx<>(SB), RODATA|NOPTR, $32
DATA laneStep<>+0x00(SB)/8, $4
DATA laneStep<>+0x08(SB)/8, $4
DATA laneStep<>+0x10(SB)/8, $4
DATA laneStep<>+0x18(SB)/8, $4
GLOBL laneStep<>(SB), RODATA|NOPTR, $32

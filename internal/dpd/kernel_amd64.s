#include "go_asm.h"
#include "textflag.h"

// func filterAVX2(x, y, z []float64, hit []int32, a, ownEnd, col0, col1 int, rc2 float64) (n int)
//
// Per vector of four candidates k..k+3: d = (x_a - x_k, ...), r² =
// (dx²+dy²)+dz² in the Go order without FMA, mask = r² < rc² (ordered, so
// NaN fails as in Go), and the set lanes' indices, compressed through
// hitLUT, are stored at hit[n:n+4] while n advances by popcount(mask).
TEXT ·filterAVX2(SB), NOSPLIT, $0-144
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ z_base+48(FP), R8
	MOVQ hit_base+72(FP), R9
	MOVQ a+96(FP), AX
	VBROADCASTSD (SI)(AX*8), Y0
	VBROADCASTSD (DI)(AX*8), Y1
	VBROADCASTSD (R8)(AX*8), Y2
	VBROADCASTSD rc2+128(FP), Y3
	LEAQ hitLUT<>(SB), R14
	MOVL $4, BX
	VMOVD BX, X8
	VPBROADCASTD X8, X8          // lane step: 4
	XORQ DX, DX                  // n
	LEAQ 1(AX), R10              // k: the own range first
	MOVQ ownEnd+104(FP), R11     // its end
	MOVQ col0+112(FP), R12       // then the column range
	MOVQ col1+120(FP), R13

next:
	CMPQ R10, R11
	JGE  ranged
	VMOVD R10, X7
	VPBROADCASTD X7, X7          // k in every lane

loop:
	VMOVUPD (SI)(R10*8), Y4
	VSUBPD  Y4, Y0, Y4
	VMULPD  Y4, Y4, Y4
	VMOVUPD (DI)(R10*8), Y5
	VSUBPD  Y5, Y1, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R8)(R10*8), Y5
	VSUBPD  Y5, Y2, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VCMPPD  $1, Y3, Y4, Y4       // LT_OS: r² < rc²
	VMOVMSKPD Y4, BX
	MOVQ R11, CX
	SUBQ R10, CX
	CMPQ CX, $4
	JGE  store
	MOVL $1, AX                  // last vector: keep lanes below the end
	SHLL CX, AX
	DECL AX
	ANDL AX, BX

store:
	MOVQ BX, AX
	SHLQ $4, AX
	VMOVDQU (R14)(AX*1), X6
	VPADDD  X7, X6, X6
	VMOVDQU X6, (R9)(DX*4)
	POPCNTL BX, BX
	ADDQ BX, DX
	VPADDD X8, X7, X7
	ADDQ $4, R10
	CMPQ R10, R11
	JLT  loop

ranged:
	CMPQ R12, $-1                // both ranges done?
	JEQ  done
	MOVQ R12, R10
	MOVQ R13, R11
	MOVQ $-1, R12
	JMP  next

done:
	MOVQ DX, n+136(FP)
	VZEROUPPER
	RET

// hitLUT row m lists the set bits of the 4-bit mask m in ascending order.
DATA hitLUT<>+0x00(SB)/4, $0
DATA hitLUT<>+0x04(SB)/4, $0
DATA hitLUT<>+0x08(SB)/4, $0
DATA hitLUT<>+0x0c(SB)/4, $0
DATA hitLUT<>+0x10(SB)/4, $0
DATA hitLUT<>+0x14(SB)/4, $0
DATA hitLUT<>+0x18(SB)/4, $0
DATA hitLUT<>+0x1c(SB)/4, $0
DATA hitLUT<>+0x20(SB)/4, $1
DATA hitLUT<>+0x24(SB)/4, $0
DATA hitLUT<>+0x28(SB)/4, $0
DATA hitLUT<>+0x2c(SB)/4, $0
DATA hitLUT<>+0x30(SB)/4, $0
DATA hitLUT<>+0x34(SB)/4, $1
DATA hitLUT<>+0x38(SB)/4, $0
DATA hitLUT<>+0x3c(SB)/4, $0
DATA hitLUT<>+0x40(SB)/4, $2
DATA hitLUT<>+0x44(SB)/4, $0
DATA hitLUT<>+0x48(SB)/4, $0
DATA hitLUT<>+0x4c(SB)/4, $0
DATA hitLUT<>+0x50(SB)/4, $0
DATA hitLUT<>+0x54(SB)/4, $2
DATA hitLUT<>+0x58(SB)/4, $0
DATA hitLUT<>+0x5c(SB)/4, $0
DATA hitLUT<>+0x60(SB)/4, $1
DATA hitLUT<>+0x64(SB)/4, $2
DATA hitLUT<>+0x68(SB)/4, $0
DATA hitLUT<>+0x6c(SB)/4, $0
DATA hitLUT<>+0x70(SB)/4, $0
DATA hitLUT<>+0x74(SB)/4, $1
DATA hitLUT<>+0x78(SB)/4, $2
DATA hitLUT<>+0x7c(SB)/4, $0
DATA hitLUT<>+0x80(SB)/4, $3
DATA hitLUT<>+0x84(SB)/4, $0
DATA hitLUT<>+0x88(SB)/4, $0
DATA hitLUT<>+0x8c(SB)/4, $0
DATA hitLUT<>+0x90(SB)/4, $0
DATA hitLUT<>+0x94(SB)/4, $3
DATA hitLUT<>+0x98(SB)/4, $0
DATA hitLUT<>+0x9c(SB)/4, $0
DATA hitLUT<>+0xa0(SB)/4, $1
DATA hitLUT<>+0xa4(SB)/4, $3
DATA hitLUT<>+0xa8(SB)/4, $0
DATA hitLUT<>+0xac(SB)/4, $0
DATA hitLUT<>+0xb0(SB)/4, $0
DATA hitLUT<>+0xb4(SB)/4, $1
DATA hitLUT<>+0xb8(SB)/4, $3
DATA hitLUT<>+0xbc(SB)/4, $0
DATA hitLUT<>+0xc0(SB)/4, $2
DATA hitLUT<>+0xc4(SB)/4, $3
DATA hitLUT<>+0xc8(SB)/4, $0
DATA hitLUT<>+0xcc(SB)/4, $0
DATA hitLUT<>+0xd0(SB)/4, $0
DATA hitLUT<>+0xd4(SB)/4, $2
DATA hitLUT<>+0xd8(SB)/4, $3
DATA hitLUT<>+0xdc(SB)/4, $0
DATA hitLUT<>+0xe0(SB)/4, $1
DATA hitLUT<>+0xe4(SB)/4, $2
DATA hitLUT<>+0xe8(SB)/4, $3
DATA hitLUT<>+0xec(SB)/4, $0
DATA hitLUT<>+0xf0(SB)/4, $0
DATA hitLUT<>+0xf4(SB)/4, $1
DATA hitLUT<>+0xf8(SB)/4, $2
DATA hitLUT<>+0xfc(SB)/4, $3
GLOBL hitLUT<>(SB), RODATA|NOPTR, $256

// func forceAVX2(a *pairArgs, hit []int32, n int)
//
// Registers: BX the arguments, SI the next four hits, CX the hits left, R13
// parts, DI a_i; R8, R9, R10 and R12 point at the four lanes' particles j.
// Y12-Y14 accumulate i's forces; Y11 is the lane mask, X10 its dword form.
// The frame holds the lanes' slots.
TEXT ·forceAVX2(SB), NOSPLIT, $16-40
	MOVQ a+0(FP), BX
	MOVQ hit_base+8(FP), SI
	MOVQ n+32(FP), CX
	MOVQ pairArgs_parts(BX), R13
	MOVQ pairArgs_ai(BX), DI
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JLE  sum

vector:
	// Lanes below the hits left: the count mask, and the four hits.
	MOVQ CX, AX
	CMPQ AX, $4
	JLE  counted
	MOVQ $4, AX

counted:
	SHLQ $4, AX
	LEAQ laneMask<>(SB), DX
	VMOVDQU (DX)(AX*1), X10
	VPMOVSXDQ X10, Y11
	VMOVDQU (SI), X0

	// j = part[k] and its slot sj = slot[k]; a masked lane reads as j = 0.
	MOVQ pairArgs_part(BX), DX
	VMOVDQA X10, X1
	VPXOR X3, X3, X3
	VPGATHERDD X1, (DX)(X0*4), X3
	MOVQ pairArgs_slot(BX), DX
	VMOVDQA X10, X1
	VPXOR X2, X2, X2
	VPGATHERDD X1, (DX)(X0*4), X2
	VMOVDQU X2, 0(SP)
	VMOVD X3, AX
	LEAQ (AX)(AX*2), AX
	SHLQ $5, AX
	LEAQ (R13)(AX*1), R8
	VPEXTRD $1, X3, AX
	LEAQ (AX)(AX*2), AX
	SHLQ $5, AX
	LEAQ (R13)(AX*1), R9
	VPEXTRD $2, X3, AX
	LEAQ (AX)(AX*2), AX
	SHLQ $5, AX
	LEAQ (R13)(AX*1), R10
	VPEXTRD $3, X3, AX
	LEAQ (AX)(AX*2), AX
	SHLQ $5, AX
	LEAQ (R13)(AX*1), R12

	// d = x_i - x_k, in the three axes.
	MOVQ pairArgs_x(BX), DX
	VMOVDQA Y11, Y1
	VXORPD Y5, Y5, Y5
	VGATHERDPD Y1, (DX)(X0*8), Y5
	VBROADCASTSD pairArgs_xi(BX), Y2
	VSUBPD Y5, Y2, Y5
	MOVQ pairArgs_y(BX), DX
	VMOVDQA Y11, Y1
	VXORPD Y6, Y6, Y6
	VGATHERDPD Y1, (DX)(X0*8), Y6
	VBROADCASTSD pairArgs_yi(BX), Y2
	VSUBPD Y6, Y2, Y6
	MOVQ pairArgs_z(BX), DX
	VMOVDQA Y11, Y1
	VXORPD Y7, Y7, Y7
	VGATHERDPD Y1, (DX)(X0*8), Y7
	VBROADCASTSD pairArgs_zi(BX), Y2
	VSUBPD Y7, Y2, Y7

	// r² = (dx²+dy²)+dz²; a lane with r² = 0 is skipped.
	VMULPD Y5, Y5, Y8
	VMULPD Y6, Y6, Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y7, Y7, Y9
	VADDPD Y9, Y8, Y8
	VXORPD Y9, Y9, Y9
	VCMPPD $4, Y9, Y8, Y9        // NEQ_UQ: r² != 0
	VANDPD Y9, Y11, Y11

	// r = √r², wu = (1 - r/rc)/r.
	VSQRTPD Y8, Y8
	VBROADCASTSD pairArgs_invRc(BX), Y9
	VMULPD Y9, Y8, Y9
	VMOVUPD one<>(SB), Y10
	VSUBPD Y9, Y10, Y9
	VDIVPD Y8, Y9, Y9

	// v_j, transposed from the lanes' particles.
	VMOVUPD Particle_Vel(R8), X0
	VMOVUPD Particle_Vel(R9), X1
	VINSERTF128 $1, Particle_Vel(R10), Y0, Y0
	VINSERTF128 $1, Particle_Vel(R12), Y1, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVSD (Particle_Vel+16)(R8), X0
	VMOVHPD (Particle_Vel+16)(R9), X0, X0
	VMOVSD (Particle_Vel+16)(R10), X1
	VMOVHPD (Particle_Vel+16)(R12), X1, X1
	VINSERTF128 $1, X1, Y0, Y0

	// dot = (dx vx + dy vy) + dz vz with v = v_i - v_j.
	VBROADCASTSD pairArgs_vxi(BX), Y10
	VSUBPD Y2, Y10, Y2
	VMULPD Y2, Y5, Y2
	VBROADCASTSD pairArgs_vyi(BX), Y10
	VSUBPD Y3, Y10, Y3
	VMULPD Y3, Y6, Y3
	VADDPD Y3, Y2, Y2
	VBROADCASTSD pairArgs_vzi(BX), Y10
	VSUBPD Y0, Y10, Y0
	VMULPD Y0, Y7, Y0
	VADDPD Y0, Y2, Y0

	// fd = (-γ wu) dot; Y8 = a_i[species_j] + fd. Species and ID are
	// adjacent words of Particle.
	VBROADCASTSD pairArgs_negGamma(BX), Y8
	VMULPD Y9, Y8, Y8
	VMULPD Y0, Y8, Y8
	VMOVDQU Particle_Species(R8), X0
	VMOVDQU Particle_Species(R9), X1
	VINSERTI128 $1, Particle_Species(R10), Y0, Y0
	VINSERTI128 $1, Particle_Species(R12), Y1, Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPUNPCKHQDQ Y1, Y0, Y0
	VMOVDQA Y11, Y1
	VXORPD Y10, Y10, Y10
	VGATHERQPD Y1, (DI)(Y2*8), Y10
	VADDPD Y8, Y10, Y8

	// ξ = splitmix64(stepKey ^ (min id << 32 | uint32(max id))).
	VPBROADCASTQ pairArgs_id(BX), Y10
	VPCMPGTQ Y0, Y10, Y15        // id_i > id_j
	VBLENDVPD Y15, Y0, Y10, Y1   // min
	VBLENDVPD Y15, Y10, Y0, Y2   // max
	VPSLLQ $32, Y1, Y1
	VPSLLQ $32, Y2, Y2
	VPSRLQ $32, Y2, Y2
	VPOR Y2, Y1, Y1
	VPBROADCASTQ pairArgs_stepKey(BX), Y2
	VPXOR Y2, Y1, Y1
	VPADDQ mixAdd<>(SB), Y1, Y1
	VPSRLQ $30, Y1, Y2
	VPXOR Y2, Y1, Y1
	// Y1 *= 0xbf58476d1ce4e5b9, from 32-bit products.
	VPMULUDQ mix1Lo<>(SB), Y1, Y2
	VPSRLQ $32, Y1, Y0
	VPMULUDQ mix1Lo<>(SB), Y0, Y0
	VPMULUDQ mix1Hi<>(SB), Y1, Y1
	VPADDQ Y1, Y0, Y0
	VPSLLQ $32, Y0, Y0
	VPADDQ Y0, Y2, Y1
	VPSRLQ $27, Y1, Y2
	VPXOR Y2, Y1, Y1
	// Y1 *= 0x94d049bb133111eb.
	VPMULUDQ mix2Lo<>(SB), Y1, Y2
	VPSRLQ $32, Y1, Y0
	VPMULUDQ mix2Lo<>(SB), Y0, Y0
	VPMULUDQ mix2Hi<>(SB), Y1, Y1
	VPADDQ Y1, Y0, Y0
	VPSLLQ $32, Y0, Y0
	VPADDQ Y0, Y2, Y1
	VPSRLQ $31, Y1, Y2
	VPXOR Y2, Y1, Y1
	// float64(h>>11) = hi 2³² + lo, both halves exact: hi = h>>43 in the
	// mantissa of 2⁸⁴, lo = the low 32 bits of h>>11 in that of 2⁵².
	VPSRLQ $43, Y1, Y0
	VPOR exp84<>(SB), Y0, Y0
	VSUBPD exp84<>(SB), Y0, Y0
	VPSRLQ $11, Y1, Y1
	VPAND low32<>(SB), Y1, Y1
	VPOR exp52<>(SB), Y1, Y1
	VSUBPD exp52<>(SB), Y1, Y1
	VADDPD Y1, Y0, Y0
	// ξ = (2x/2⁵³ - 1)√3; f = ((a + fd) + σξ) wu.
	VADDPD Y0, Y0, Y0
	VMULPD inv2p53<>(SB), Y0, Y0
	VSUBPD one<>(SB), Y0, Y0
	VMULPD sqrt3<>(SB), Y0, Y0
	VBROADCASTSD pairArgs_sigma(BX), Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y0, Y8, Y8
	VMULPD Y9, Y8, Y8

	// A frozen i skips its frozen partners.
	CMPB pairArgs_frozen(BX), $0
	JEQ  mobile
	XORL DX, DX
	MOVBLZX Particle_Frozen(R8), AX
	ORL AX, DX
	MOVBLZX Particle_Frozen(R9), AX
	SHLL $1, AX
	ORL AX, DX
	MOVBLZX Particle_Frozen(R10), AX
	SHLL $2, AX
	ORL AX, DX
	MOVBLZX Particle_Frozen(R12), AX
	SHLL $3, AX
	ORL AX, DX
	NOTL DX
	VMOVMSKPD Y11, AX
	ANDL DX, AX
	SHLQ $5, AX
	LEAQ bitMask<>(SB), DX
	VMOVDQU (DX)(AX*1), Y11

mobile:
	// F = ((f d + Q) - Q) in the live lanes, +0 in the others.
	VMULPD Y5, Y8, Y5
	VADDPD exactQ<>(SB), Y5, Y5
	VSUBPD exactQ<>(SB), Y5, Y5
	VANDPD Y11, Y5, Y5
	VMULPD Y6, Y8, Y6
	VADDPD exactQ<>(SB), Y6, Y6
	VSUBPD exactQ<>(SB), Y6, Y6
	VANDPD Y11, Y6, Y6
	VMULPD Y7, Y8, Y7
	VADDPD exactQ<>(SB), Y7, Y7
	VSUBPD exactQ<>(SB), Y7, Y7
	VANDPD Y11, Y7, Y7
	VADDPD Y5, Y12, Y12
	VADDPD Y6, Y13, Y13
	VADDPD Y7, Y14, Y14

	// The reactions, lane by lane, into halo[sj - haloLo] when sj is in
	// the halo, else into parts[j].F.
	VMOVMSKPD Y11, R14
	VUNPCKLPD Y6, Y5, Y0         // fx, fy of lanes 0 and 2
	VUNPCKHPD Y6, Y5, Y1         // of lanes 1 and 3
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	VUNPCKHPD X7, X7, X4         // fz of lane 1
	VEXTRACTF128 $1, Y7, X8      // of lanes 2 and 3
	VUNPCKHPD X8, X8, X9
	BTL $0, R14
	JCC lane0done
	LEAQ Particle_F(R8), AX
	MOVL 0(SP), DX
	SUBL pairArgs_haloLo(BX), DX
	CMPL DX, pairArgs_haloN(BX)
	JAE  lane0react
	LEAQ (DX)(DX*2), DX
	MOVQ pairArgs_halo(BX), AX
	LEAQ (AX)(DX*8), AX

lane0react:
	VMOVUPD (AX), X10
	VSUBPD X0, X10, X10
	VMOVUPD X10, (AX)
	VMOVSD 16(AX), X10
	VSUBSD X7, X10, X10
	VMOVSD X10, 16(AX)

lane0done:
	BTL $1, R14
	JCC lane1done
	LEAQ Particle_F(R9), AX
	MOVL 4(SP), DX
	SUBL pairArgs_haloLo(BX), DX
	CMPL DX, pairArgs_haloN(BX)
	JAE  lane1react
	LEAQ (DX)(DX*2), DX
	MOVQ pairArgs_halo(BX), AX
	LEAQ (AX)(DX*8), AX

lane1react:
	VMOVUPD (AX), X10
	VSUBPD X1, X10, X10
	VMOVUPD X10, (AX)
	VMOVSD 16(AX), X10
	VSUBSD X4, X10, X10
	VMOVSD X10, 16(AX)

lane1done:
	BTL $2, R14
	JCC lane2done
	LEAQ Particle_F(R10), AX
	MOVL 8(SP), DX
	SUBL pairArgs_haloLo(BX), DX
	CMPL DX, pairArgs_haloN(BX)
	JAE  lane2react
	LEAQ (DX)(DX*2), DX
	MOVQ pairArgs_halo(BX), AX
	LEAQ (AX)(DX*8), AX

lane2react:
	VMOVUPD (AX), X10
	VSUBPD X2, X10, X10
	VMOVUPD X10, (AX)
	VMOVSD 16(AX), X10
	VSUBSD X8, X10, X10
	VMOVSD X10, 16(AX)

lane2done:
	BTL $3, R14
	JCC lane3done
	LEAQ Particle_F(R12), AX
	MOVL 12(SP), DX
	SUBL pairArgs_haloLo(BX), DX
	CMPL DX, pairArgs_haloN(BX)
	JAE  lane3react
	LEAQ (DX)(DX*2), DX
	MOVQ pairArgs_halo(BX), AX
	LEAQ (AX)(DX*8), AX

lane3react:
	VMOVUPD (AX), X10
	VSUBPD X3, X10, X10
	VMOVUPD X10, (AX)
	VMOVSD 16(AX), X10
	VSUBSD X9, X10, X10
	VMOVSD X10, 16(AX)

lane3done:

	ADDQ $16, SI
	SUBQ $4, CX
	JGT  vector

sum:
	// The lanes' sums are exact, so their order is free.
	VEXTRACTF128 $1, Y12, X0
	VADDPD X0, X12, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, pairArgs_fx(BX)
	VEXTRACTF128 $1, Y13, X0
	VADDPD X0, X13, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, pairArgs_fy(BX)
	VEXTRACTF128 $1, Y14, X0
	VADDPD X0, X14, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, pairArgs_fz(BX)
	VZEROUPPER
	RET

// bitMask row m has lane l set when bit l of m is.
DATA bitMask<>+0x000(SB)/8, $0
DATA bitMask<>+0x008(SB)/8, $0
DATA bitMask<>+0x010(SB)/8, $0
DATA bitMask<>+0x018(SB)/8, $0
DATA bitMask<>+0x020(SB)/8, $-1
DATA bitMask<>+0x028(SB)/8, $0
DATA bitMask<>+0x030(SB)/8, $0
DATA bitMask<>+0x038(SB)/8, $0
DATA bitMask<>+0x040(SB)/8, $0
DATA bitMask<>+0x048(SB)/8, $-1
DATA bitMask<>+0x050(SB)/8, $0
DATA bitMask<>+0x058(SB)/8, $0
DATA bitMask<>+0x060(SB)/8, $-1
DATA bitMask<>+0x068(SB)/8, $-1
DATA bitMask<>+0x070(SB)/8, $0
DATA bitMask<>+0x078(SB)/8, $0
DATA bitMask<>+0x080(SB)/8, $0
DATA bitMask<>+0x088(SB)/8, $0
DATA bitMask<>+0x090(SB)/8, $-1
DATA bitMask<>+0x098(SB)/8, $0
DATA bitMask<>+0x0a0(SB)/8, $-1
DATA bitMask<>+0x0a8(SB)/8, $0
DATA bitMask<>+0x0b0(SB)/8, $-1
DATA bitMask<>+0x0b8(SB)/8, $0
DATA bitMask<>+0x0c0(SB)/8, $0
DATA bitMask<>+0x0c8(SB)/8, $-1
DATA bitMask<>+0x0d0(SB)/8, $-1
DATA bitMask<>+0x0d8(SB)/8, $0
DATA bitMask<>+0x0e0(SB)/8, $-1
DATA bitMask<>+0x0e8(SB)/8, $-1
DATA bitMask<>+0x0f0(SB)/8, $-1
DATA bitMask<>+0x0f8(SB)/8, $0
DATA bitMask<>+0x100(SB)/8, $0
DATA bitMask<>+0x108(SB)/8, $0
DATA bitMask<>+0x110(SB)/8, $0
DATA bitMask<>+0x118(SB)/8, $-1
DATA bitMask<>+0x120(SB)/8, $-1
DATA bitMask<>+0x128(SB)/8, $0
DATA bitMask<>+0x130(SB)/8, $0
DATA bitMask<>+0x138(SB)/8, $-1
DATA bitMask<>+0x140(SB)/8, $0
DATA bitMask<>+0x148(SB)/8, $-1
DATA bitMask<>+0x150(SB)/8, $0
DATA bitMask<>+0x158(SB)/8, $-1
DATA bitMask<>+0x160(SB)/8, $-1
DATA bitMask<>+0x168(SB)/8, $-1
DATA bitMask<>+0x170(SB)/8, $0
DATA bitMask<>+0x178(SB)/8, $-1
DATA bitMask<>+0x180(SB)/8, $0
DATA bitMask<>+0x188(SB)/8, $0
DATA bitMask<>+0x190(SB)/8, $-1
DATA bitMask<>+0x198(SB)/8, $-1
DATA bitMask<>+0x1a0(SB)/8, $-1
DATA bitMask<>+0x1a8(SB)/8, $0
DATA bitMask<>+0x1b0(SB)/8, $-1
DATA bitMask<>+0x1b8(SB)/8, $-1
DATA bitMask<>+0x1c0(SB)/8, $0
DATA bitMask<>+0x1c8(SB)/8, $-1
DATA bitMask<>+0x1d0(SB)/8, $-1
DATA bitMask<>+0x1d8(SB)/8, $-1
DATA bitMask<>+0x1e0(SB)/8, $-1
DATA bitMask<>+0x1e8(SB)/8, $-1
DATA bitMask<>+0x1f0(SB)/8, $-1
DATA bitMask<>+0x1f8(SB)/8, $-1
GLOBL bitMask<>(SB), RODATA|NOPTR, $512

// laneMask row c has its first c dwords set.
DATA laneMask<>+0x00(SB)/8, $0
DATA laneMask<>+0x08(SB)/8, $0
DATA laneMask<>+0x10(SB)/8, $0x00000000ffffffff
DATA laneMask<>+0x18(SB)/8, $0
DATA laneMask<>+0x20(SB)/8, $-1
DATA laneMask<>+0x28(SB)/8, $0
DATA laneMask<>+0x30(SB)/8, $-1
DATA laneMask<>+0x38(SB)/8, $0x00000000ffffffff
DATA laneMask<>+0x40(SB)/8, $-1
DATA laneMask<>+0x48(SB)/8, $-1
GLOBL laneMask<>(SB), RODATA|NOPTR, $80

// Four-lane constants.
// one: 1.0
DATA one<>+0x00(SB)/8, $0x3ff0000000000000
DATA one<>+0x08(SB)/8, $0x3ff0000000000000
DATA one<>+0x10(SB)/8, $0x3ff0000000000000
DATA one<>+0x18(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32
// exactQ: exactQ = 1.5·2¹²
DATA exactQ<>+0x00(SB)/8, $0x40b8000000000000
DATA exactQ<>+0x08(SB)/8, $0x40b8000000000000
DATA exactQ<>+0x10(SB)/8, $0x40b8000000000000
DATA exactQ<>+0x18(SB)/8, $0x40b8000000000000
GLOBL exactQ<>(SB), RODATA|NOPTR, $32
// sqrt3: 1.7320508075688772
DATA sqrt3<>+0x00(SB)/8, $0x3ffbb67ae8584caa
DATA sqrt3<>+0x08(SB)/8, $0x3ffbb67ae8584caa
DATA sqrt3<>+0x10(SB)/8, $0x3ffbb67ae8584caa
DATA sqrt3<>+0x18(SB)/8, $0x3ffbb67ae8584caa
GLOBL sqrt3<>(SB), RODATA|NOPTR, $32
// inv2p53: 2⁻⁵³
DATA inv2p53<>+0x00(SB)/8, $0x3ca0000000000000
DATA inv2p53<>+0x08(SB)/8, $0x3ca0000000000000
DATA inv2p53<>+0x10(SB)/8, $0x3ca0000000000000
DATA inv2p53<>+0x18(SB)/8, $0x3ca0000000000000
GLOBL inv2p53<>(SB), RODATA|NOPTR, $32
// exp52: 2⁵²
DATA exp52<>+0x00(SB)/8, $0x4330000000000000
DATA exp52<>+0x08(SB)/8, $0x4330000000000000
DATA exp52<>+0x10(SB)/8, $0x4330000000000000
DATA exp52<>+0x18(SB)/8, $0x4330000000000000
GLOBL exp52<>(SB), RODATA|NOPTR, $32
// exp84: 2⁸⁴
DATA exp84<>+0x00(SB)/8, $0x4530000000000000
DATA exp84<>+0x08(SB)/8, $0x4530000000000000
DATA exp84<>+0x10(SB)/8, $0x4530000000000000
DATA exp84<>+0x18(SB)/8, $0x4530000000000000
GLOBL exp84<>(SB), RODATA|NOPTR, $32
DATA low32<>+0x00(SB)/8, $0x00000000ffffffff
DATA low32<>+0x08(SB)/8, $0x00000000ffffffff
DATA low32<>+0x10(SB)/8, $0x00000000ffffffff
DATA low32<>+0x18(SB)/8, $0x00000000ffffffff
GLOBL low32<>(SB), RODATA|NOPTR, $32
// mixAdd: splitmix64's increment
DATA mixAdd<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA mixAdd<>+0x08(SB)/8, $0x9e3779b97f4a7c15
DATA mixAdd<>+0x10(SB)/8, $0x9e3779b97f4a7c15
DATA mixAdd<>+0x18(SB)/8, $0x9e3779b97f4a7c15
GLOBL mixAdd<>(SB), RODATA|NOPTR, $32
// mix1Lo: its first multiplier, low and high words
DATA mix1Lo<>+0x00(SB)/8, $0x000000001ce4e5b9
DATA mix1Lo<>+0x08(SB)/8, $0x000000001ce4e5b9
DATA mix1Lo<>+0x10(SB)/8, $0x000000001ce4e5b9
DATA mix1Lo<>+0x18(SB)/8, $0x000000001ce4e5b9
GLOBL mix1Lo<>(SB), RODATA|NOPTR, $32
DATA mix1Hi<>+0x00(SB)/8, $0x00000000bf58476d
DATA mix1Hi<>+0x08(SB)/8, $0x00000000bf58476d
DATA mix1Hi<>+0x10(SB)/8, $0x00000000bf58476d
DATA mix1Hi<>+0x18(SB)/8, $0x00000000bf58476d
GLOBL mix1Hi<>(SB), RODATA|NOPTR, $32
// mix2Lo: its second multiplier
DATA mix2Lo<>+0x00(SB)/8, $0x00000000133111eb
DATA mix2Lo<>+0x08(SB)/8, $0x00000000133111eb
DATA mix2Lo<>+0x10(SB)/8, $0x00000000133111eb
DATA mix2Lo<>+0x18(SB)/8, $0x00000000133111eb
GLOBL mix2Lo<>(SB), RODATA|NOPTR, $32
DATA mix2Hi<>+0x00(SB)/8, $0x0000000094d049bb
DATA mix2Hi<>+0x08(SB)/8, $0x0000000094d049bb
DATA mix2Hi<>+0x10(SB)/8, $0x0000000094d049bb
DATA mix2Hi<>+0x18(SB)/8, $0x0000000094d049bb
GLOBL mix2Hi<>(SB), RODATA|NOPTR, $32

#include "textflag.h"

// ROUND applies one AES round with the round key at off(AX) to the
// eight states in X0-X7. The eight AESENCs are independent, so they
// overlap in the AES unit's pipeline.
#define ROUND(op, off) \
	MOVOU off(AX), X8; \
	op X8, X0; \
	op X8, X1; \
	op X8, X2; \
	op X8, X3; \
	op X8, X4; \
	op X8, X5; \
	op X8, X6; \
	op X8, X7

// func encrypt8(xk *[176]byte, dst, src *[128]byte)
TEXT ·encrypt8(SB), NOSPLIT, $0-24
	MOVQ xk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	ROUND(PXOR, 0)
	ROUND(AESENC, 16)
	ROUND(AESENC, 32)
	ROUND(AESENC, 48)
	ROUND(AESENC, 64)
	ROUND(AESENC, 80)
	ROUND(AESENC, 96)
	ROUND(AESENC, 112)
	ROUND(AESENC, 128)
	ROUND(AESENC, 144)
	ROUND(AESENCLAST, 160)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

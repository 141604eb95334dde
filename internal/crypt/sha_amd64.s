// Copyright 2024 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

// SHA-256 block compression with the Intel SHA extensions, derived from
// the Go standard library's blockSHANI (crypto/internal/fips140/sha256,
// sha256block_amd64.s, after S. Gulley et al., "New Instructions
// Supporting the Secure Hash Algorithm on Intel Architecture
// Processors", 2013). Changed from it: the AVX moves VMOVDQU/VMOVDQA
// are the SSE2 MOVOU/MOVO, so the kernel needs SHA, SSSE3 and SSE4.1
// but not AVX; and the round constants are stored once, at a 16-byte
// stride, instead of duplicated for the AVX2 routine.

#include "textflag.h"

DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// K256 holds the 64 SHA-256 round constants; the linker aligns a
// 256-byte symbol to 32 bytes, as PADDD's m128 operand needs.
DATA K256<>+0(SB)/4, $0x428a2f98
DATA K256<>+4(SB)/4, $0x71374491
DATA K256<>+8(SB)/4, $0xb5c0fbcf
DATA K256<>+12(SB)/4, $0xe9b5dba5
DATA K256<>+16(SB)/4, $0x3956c25b
DATA K256<>+20(SB)/4, $0x59f111f1
DATA K256<>+24(SB)/4, $0x923f82a4
DATA K256<>+28(SB)/4, $0xab1c5ed5
DATA K256<>+32(SB)/4, $0xd807aa98
DATA K256<>+36(SB)/4, $0x12835b01
DATA K256<>+40(SB)/4, $0x243185be
DATA K256<>+44(SB)/4, $0x550c7dc3
DATA K256<>+48(SB)/4, $0x72be5d74
DATA K256<>+52(SB)/4, $0x80deb1fe
DATA K256<>+56(SB)/4, $0x9bdc06a7
DATA K256<>+60(SB)/4, $0xc19bf174
DATA K256<>+64(SB)/4, $0xe49b69c1
DATA K256<>+68(SB)/4, $0xefbe4786
DATA K256<>+72(SB)/4, $0x0fc19dc6
DATA K256<>+76(SB)/4, $0x240ca1cc
DATA K256<>+80(SB)/4, $0x2de92c6f
DATA K256<>+84(SB)/4, $0x4a7484aa
DATA K256<>+88(SB)/4, $0x5cb0a9dc
DATA K256<>+92(SB)/4, $0x76f988da
DATA K256<>+96(SB)/4, $0x983e5152
DATA K256<>+100(SB)/4, $0xa831c66d
DATA K256<>+104(SB)/4, $0xb00327c8
DATA K256<>+108(SB)/4, $0xbf597fc7
DATA K256<>+112(SB)/4, $0xc6e00bf3
DATA K256<>+116(SB)/4, $0xd5a79147
DATA K256<>+120(SB)/4, $0x06ca6351
DATA K256<>+124(SB)/4, $0x14292967
DATA K256<>+128(SB)/4, $0x27b70a85
DATA K256<>+132(SB)/4, $0x2e1b2138
DATA K256<>+136(SB)/4, $0x4d2c6dfc
DATA K256<>+140(SB)/4, $0x53380d13
DATA K256<>+144(SB)/4, $0x650a7354
DATA K256<>+148(SB)/4, $0x766a0abb
DATA K256<>+152(SB)/4, $0x81c2c92e
DATA K256<>+156(SB)/4, $0x92722c85
DATA K256<>+160(SB)/4, $0xa2bfe8a1
DATA K256<>+164(SB)/4, $0xa81a664b
DATA K256<>+168(SB)/4, $0xc24b8b70
DATA K256<>+172(SB)/4, $0xc76c51a3
DATA K256<>+176(SB)/4, $0xd192e819
DATA K256<>+180(SB)/4, $0xd6990624
DATA K256<>+184(SB)/4, $0xf40e3585
DATA K256<>+188(SB)/4, $0x106aa070
DATA K256<>+192(SB)/4, $0x19a4c116
DATA K256<>+196(SB)/4, $0x1e376c08
DATA K256<>+200(SB)/4, $0x2748774c
DATA K256<>+204(SB)/4, $0x34b0bcb5
DATA K256<>+208(SB)/4, $0x391c0cb3
DATA K256<>+212(SB)/4, $0x4ed8aa4a
DATA K256<>+216(SB)/4, $0x5b9cca4f
DATA K256<>+220(SB)/4, $0x682e6ff3
DATA K256<>+224(SB)/4, $0x748f82ee
DATA K256<>+228(SB)/4, $0x78a5636f
DATA K256<>+232(SB)/4, $0x84c87814
DATA K256<>+236(SB)/4, $0x8cc70208
DATA K256<>+240(SB)/4, $0x90befffa
DATA K256<>+244(SB)/4, $0xa4506ceb
DATA K256<>+248(SB)/4, $0xbef9a3f7
DATA K256<>+252(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $256

// func blockSHANI(h *[8]uint32, p []byte)
// Compresses the whole 64-byte blocks of p into the state h.
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ    h+0(FP), DI
	MOVQ    p_base+8(FP), SI
	MOVQ    p_len+16(FP), DX
	SHRQ    $0x06, DX
	SHLQ    $0x06, DX
	CMPQ    DX, $0x00
	JEQ     done
	ADDQ    SI, DX
	MOVOU   (DI), X1
	MOVOU   16(DI), X2
	PSHUFD  $0xb1, X1, X1
	PSHUFD  $0x1b, X2, X2
	MOVO    X1, X7
	PALIGNR $0x08, X2, X1
	PBLENDW $0xf0, X7, X2
	MOVO    flip_mask<>(SB), X8
	LEAQ    K256<>+0(SB), AX

roundLoop:
	// save hash values for addition after rounds
	MOVO    X1, X9
	MOVO    X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// advance data pointer; loop until buffer empty
	ADDQ $0x40, SI
	CMPQ DX, SI
	JNE  roundLoop

	// write hash values back in the correct order
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)

done:
	RET

// func hasSHANI() bool
// Reports CPUID leaf 7's SHA bit (EBX bit 29) and leaf 1's SSSE3 and
// SSE4.1 bits (ECX bits 9 and 19): the extensions blockSHANI uses.
TEXT ·hasSHANI(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $29, BX
	JCC  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $9, CX
	JCC  no
	BTL  $19, CX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

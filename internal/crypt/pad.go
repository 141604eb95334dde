package crypt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// kernelBlocks is the number of 16-byte chunks one pad-kernel call
// encrypts; kernelBytes is their size.
const (
	kernelBlocks = 8
	kernelBytes  = kernelBlocks * 16
)

// roundKeyBytes is the size of an expanded AES-128 key: 11 round keys.
const roundKeyBytes = 11 * 16

// expandKey128 expands an AES-128 key into its 11 round keys
// (FIPS-197 §5.2). Round key r occupies xk[16r:16r+16] in state byte
// order, the layout the pad kernel loads.
func expandKey128(xk *[roundKeyBytes]byte, key *[16]byte) {
	copy(xk[:16], key[:])
	rcon := byte(1)
	for i := 16; i < roundKeyBytes; i += 4 {
		t := [4]byte{xk[i-4], xk[i-3], xk[i-2], xk[i-1]}
		if i%16 == 0 {
			// SubWord(RotWord(t)) xor Rcon.
			t = [4]byte{sbox(t[1]) ^ rcon, sbox(t[2]), sbox(t[3]), sbox(t[0])}
			rcon = gfMul(rcon, 2)
		}
		for j := range t {
			xk[i+j] = xk[i-16+j] ^ t[j]
		}
	}
}

// gfMul multiplies in GF(2^8) modulo x^8+x^4+x^3+x+1 (FIPS-197 §4.2).
func gfMul(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
	}
	return p
}

// sbox is the AES S-box (FIPS-197 §5.1.1): the multiplicative inverse
// in GF(2^8), x^254 (0 maps to 0), then the affine transform.
func sbox(x byte) byte {
	sq, inv := x, byte(1)
	for i := 1; i < 8; i++ {
		sq = gfMul(sq, sq)
		inv = gfMul(inv, sq)
	}
	return inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
		bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
}

// checkKernel encrypts one 8-block vector with the pad kernel and with
// crypto/aes, and panics if they differ: a wrong key schedule or a
// broken kernel must never produce pads.
func (e *Engine) checkKernel() {
	for i := range e.ivs {
		e.ivs[i] = byte(i*37 + 11)
	}
	encrypt8(&e.xk, &e.pads, &e.ivs)
	for j := 0; j < kernelBlocks; j++ {
		e.aes.Encrypt(e.xorBuf[:], e.ivs[16*j:16*j+16])
		if [16]byte(e.pads[16*j:16*j+16]) != e.xorBuf {
			panic(fmt.Sprintf("crypt: pad kernel block %d disagrees with crypto/aes", j))
		}
	}
}

// padChunks validates a pad request once — a positive multiple of 16
// bytes, at most 256 chunks, at a 16-aligned address below 2^52 — and
// returns its chunk count.
func padChunks(n int, addr int64) int {
	if n <= 0 || n%16 != 0 {
		panic(fmt.Sprintf("crypt: pad length %d not a positive multiple of 16", n))
	}
	if addr < 0 || addr >= maxIVAddr || addr&15 != 0 {
		panic(fmt.Sprintf("crypt: address %#x not encryptable (must be 16-aligned, below 2^52)", addr))
	}
	if n/16 > 256 {
		panic(fmt.Sprintf("crypt: %d chunks out of range, at most 256 per block", n/16))
	}
	return n / 16
}

// stageIVs writes the IV fields every chunk of one pad shares — major,
// address and minor — into all eight kernel lanes. padGroup then varies
// only the chunk byte.
func (e *Engine) stageIVs(addr int64, ctr Counter) {
	// v[8:14] = addr>>4 (below 2^48, as addr < 2^52), v[14] = minor.
	hi := uint64(addr)>>4 | uint64(ctr.Minor)<<48
	for j := 0; j < kernelBytes; j += 16 {
		binary.LittleEndian.PutUint64(e.ivs[j:], ctr.Major)
		binary.LittleEndian.PutUint64(e.ivs[j+8:], hi)
	}
}

// padGroup writes the pads of chunks c..c+7 into dst with one kernel
// call. Lanes past the block's last chunk compute pads nobody reads.
func (e *Engine) padGroup(dst *[kernelBytes]byte, c int) {
	for j := 0; j < kernelBlocks; j++ {
		e.ivs[16*j+15] = byte(c + j)
	}
	encrypt8(&e.xk, dst, &e.ivs)
}

// Package crypt implements the cryptographic engine of the secure memory
// controller: counter-mode (AES-CTR) memory encryption with split-counter
// initialization vectors, first-level block MACs, the 8-byte second-level
// MACs stored in PUB entries, and the keyed hashes used by the Bonsai
// Merkle Tree.
//
// The construction follows Figure 1 of the paper: the IV for a block is
// formed from the block address (spatial uniqueness), the split counter
// (temporal uniqueness: 64-bit major + 7-bit minor), and the chunk index
// within the block. The IV is encrypted with AES-128 to produce a
// one-time pad that is XORed with the plaintext/ciphertext, hiding the
// AES latency behind the data fetch.
//
// IV layout (16 bytes, little-endian fields):
//
//	v[0:8]   major counter (full 64 bits)
//	v[8:14]  block address >> 4 (48 bits; addresses are 16-byte aligned)
//	v[14]    minor counter (7 bits architecturally)
//	v[15]    chunk index within the block
//
// Every field occupies a dedicated byte range, so distinct
// (address, major, minor, chunk) tuples always produce distinct IVs —
// the pad is never reused. Addresses above 2^52 and blocks longer than
// 4 KiB (256 chunks) are rejected rather than silently truncated.
//
// The chunks of one block differ only in v[15], so their pads are
// independent. On amd64 CPUs with AES-NI, PadInto and XorPad compute
// them eight at a time with one interleaved AESENC kernel call
// (pad_amd64.s) over round keys NewEngine expands once (FIPS-197) and
// checks against crypto/aes. Elsewhere they run one crypto/aes
// Encrypt per chunk, the reference the kernel is tested against.
//
// MACs and tree hashes are keyed SHA-256 truncated to the architectural
// widths (the hardware would use a dedicated MAC unit such as an AES-GMAC
// engine; a keyed hash preserves the properties the model needs —
// determinism, key dependence, and collision resistance for tamper
// detection).
//
// An Engine carries reusable scratch state (a resettable keyed digest and
// a pad buffer), so it is NOT safe for concurrent use. Each controller
// owns its engine; parallel experiment runs each build their own.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
)

// Engine holds the processor's memory-encryption keys. One engine
// corresponds to one secure processor; keys never leave the chip.
type Engine struct {
	aes    cipher.Block
	macKey [16]byte

	// xk is the expanded AES key the pad kernel loads; ivs and pads
	// stage one kernel call's eight IVs and pads.
	xk   [roundKeyBytes]byte
	ivs  [kernelBytes]byte
	pads [kernelBytes]byte

	// Resettable keyed digest: h is restored from a pre-keyed marshaled
	// state per MAC instead of rehashing the key and reallocating a
	// digest every call. One saved state per domain-separation tag.
	h      hash.Hash
	stMAC1 []byte
	stMAC2 []byte
	stTree []byte
	sumBuf [sha256.Size]byte

	// Per-op scratch. These live on the engine (not the stack) because
	// arguments passed through the cipher.Block / hash.Hash interfaces
	// escape: stack arrays would heap-allocate on every call.
	ivBuf   [16]byte
	xorBuf  [16]byte
	hdrBuf  [17]byte
	nodeBuf [TreeNodeWords * 8]byte
}

// NewEngine derives a deterministic engine from a seed so experiments are
// reproducible. Production hardware would draw the keys from fuses or a
// DRBG at boot; determinism here only affects simulation repeatability.
func NewEngine(seed int64) *Engine {
	var aesKey [16]byte
	binary.LittleEndian.PutUint64(aesKey[0:8], uint64(seed)^0xA5A5_5A5A_DEAD_BEEF)
	binary.LittleEndian.PutUint64(aesKey[8:16], uint64(seed)*0x9E37_79B9_7F4A_7C15+1)
	blk, err := aes.NewCipher(aesKey[:])
	if err != nil {
		panic(fmt.Sprintf("crypt: AES key setup: %v", err))
	}
	e := &Engine{aes: blk}
	expandKey128(&e.xk, &aesKey)
	if useKernel {
		e.checkKernel()
	}
	binary.LittleEndian.PutUint64(e.macKey[0:8], uint64(seed)*0xC2B2_AE3D_27D4_EB4F+7)
	binary.LittleEndian.PutUint64(e.macKey[8:16], uint64(seed)^0x1655_67C1_B3F7_4034)
	e.h = sha256.New()
	e.stMAC1 = e.keyedState(domMAC1)
	e.stMAC2 = e.keyedState(domMAC2)
	e.stTree = e.keyedState(domTree)
	return e
}

// keyedState returns the marshaled digest state after absorbing the MAC
// key and a domain tag, computed once per domain at engine construction.
func (e *Engine) keyedState(domain byte) []byte {
	e.h.Reset()
	e.h.Write(e.macKey[:])
	e.h.Write([]byte{domain})
	st, err := e.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("crypt: digest state marshal: %v", err))
	}
	return st
}

// Counter is a split encryption counter: a major shared by all blocks of
// a page and a per-block minor (7 bits architecturally).
type Counter struct {
	Major uint64
	Minor uint8
}

// MinorBits is the architectural width of the minor counter.
const MinorBits = 7

// MinorMax is the largest representable minor counter value.
const MinorMax = 1<<MinorBits - 1

// maxIVAddr bounds the encryptable address space: the IV carries
// addr>>4 in 48 bits, so addresses must stay below 2^52.
const maxIVAddr = 1 << 52

// iv assembles the 16-byte AES input for one 16-byte chunk of a block
// into the engine's IV scratch. Each field has a dedicated byte range
// (see the package comment), so distinct (addr, major, minor, chunk)
// tuples give distinct IVs. Callers validate addr and chunk first
// (padChunks).
func (e *Engine) iv(addr int64, ctr Counter, chunk int) {
	v := &e.ivBuf
	binary.LittleEndian.PutUint64(v[0:8], ctr.Major)
	a := uint64(addr) >> 4
	v[8] = byte(a)
	v[9] = byte(a >> 8)
	v[10] = byte(a >> 16)
	v[11] = byte(a >> 24)
	v[12] = byte(a >> 32)
	v[13] = byte(a >> 40)
	v[14] = ctr.Minor
	v[15] = byte(chunk)
}

// PadInto fills dst with the one-time pad for len(dst) bytes at the given
// address and counter. len(dst) must be a multiple of the AES block
// size (16).
func (e *Engine) PadInto(dst []byte, addr int64, ctr Counter) {
	n := padChunks(len(dst), addr)
	if !useKernel {
		for c := 0; c < n; c++ {
			e.iv(addr, ctr, c)
			e.aes.Encrypt(dst[c*16:(c+1)*16], e.ivBuf[:])
		}
		return
	}
	e.stageIVs(addr, ctr)
	for c := 0; c < n; c += kernelBlocks {
		if rest := dst[c*16:]; len(rest) >= kernelBytes {
			e.padGroup((*[kernelBytes]byte)(rest), c)
		} else {
			e.padGroup(&e.pads, c)
			copy(rest, e.pads[:])
		}
	}
}

// Pad produces the one-time pad for n bytes at the given address and
// counter. n must be a multiple of the AES block size (16). The result
// is freshly allocated; hot paths use XorPad or PadInto.
func (e *Engine) Pad(addr int64, ctr Counter, n int) []byte {
	out := make([]byte, n)
	e.PadInto(out, addr, ctr)
	return out
}

// XorPad XORs the one-time pad for (addr, ctr) into data in place: it
// encrypts a plaintext or decrypts a ciphertext without allocating.
// len(data) must be a multiple of 16.
func (e *Engine) XorPad(data []byte, addr int64, ctr Counter) {
	n := padChunks(len(data), addr)
	if useKernel {
		e.stageIVs(addr, ctr)
		for c := 0; c < n; c += kernelBlocks {
			e.padGroup(&e.pads, c)
			rest := data[c*16:]
			subtle.XORBytes(rest, rest, e.pads[:])
		}
		return
	}
	pad := &e.xorBuf
	for c := 0; c < n; c++ {
		e.iv(addr, ctr, c)
		e.aes.Encrypt(pad[:], e.ivBuf[:])
		chunk := data[c*16 : (c+1)*16 : (c+1)*16]
		x := binary.LittleEndian.Uint64(chunk[0:8]) ^ binary.LittleEndian.Uint64(pad[0:8])
		y := binary.LittleEndian.Uint64(chunk[8:16]) ^ binary.LittleEndian.Uint64(pad[8:16])
		binary.LittleEndian.PutUint64(chunk[0:8], x)
		binary.LittleEndian.PutUint64(chunk[8:16], y)
	}
}

// EncryptInto writes the ciphertext of plain under (addr, ctr) into dst,
// which must be the same length as plain (a multiple of 16). dst and
// plain may alias exactly.
func (e *Engine) EncryptInto(dst, plain []byte, addr int64, ctr Counter) {
	if len(dst) != len(plain) {
		panic(fmt.Sprintf("crypt: encrypt dst %d bytes, src %d", len(dst), len(plain)))
	}
	if &dst[0] != &plain[0] {
		copy(dst, plain)
	}
	e.XorPad(dst, addr, ctr)
}

// Encrypt returns the ciphertext of plain under (addr, ctr). Counter-mode
// encryption is an XOR with the pad, so Decrypt is the same operation.
// The result is freshly allocated; hot paths use EncryptInto or XorPad.
func (e *Engine) Encrypt(plain []byte, addr int64, ctr Counter) []byte {
	out := make([]byte, len(plain))
	e.EncryptInto(out, plain, addr, ctr)
	return out
}

// Decrypt returns the plaintext of ciphertext under (addr, ctr).
func (e *Engine) Decrypt(ciphertext []byte, addr int64, ctr Counter) []byte {
	return e.Encrypt(ciphertext, addr, ctr)
}

// keyedSum restores the digest from a pre-keyed state, absorbs p1 and p2
// (either may be nil), and writes the first len(out) bytes of the sum
// into out. Allocation-free after engine construction.
func (e *Engine) keyedSum(out []byte, state []byte, p1, p2 []byte) {
	if err := e.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("crypt: digest state restore: %v", err))
	}
	if p1 != nil {
		e.h.Write(p1)
	}
	if p2 != nil {
		e.h.Write(p2)
	}
	sum := e.h.Sum(e.sumBuf[:0])
	copy(out, sum[:len(out)])
}

// Domain-separation tags for the different MAC/hash uses.
const (
	domMAC1 byte = 1
	domMAC2 byte = 2
	domTree byte = 3
)

// macHdr packs the (address, counter) binding for the first-level MAC
// into the engine's header scratch: full 64-bit address, full 64-bit
// major, and the minor in a dedicated byte — no field overlaps.
func (e *Engine) macHdr(addr int64, ctr Counter) {
	hdr := &e.hdrBuf
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(addr))
	binary.LittleEndian.PutUint64(hdr[8:16], ctr.Major)
	hdr[16] = ctr.Minor
}

// MACInto computes the first-level MAC over (ciphertext, address,
// counter), truncated to len(dst) bytes, without allocating.
func (e *Engine) MACInto(dst []byte, ciphertext []byte, addr int64, ctr Counter) {
	if len(dst) <= 0 || len(dst) > sha256.Size {
		panic(fmt.Sprintf("crypt: MAC size %d out of range", len(dst)))
	}
	e.macHdr(addr, ctr)
	e.keyedSum(dst, e.stMAC1, e.hdrBuf[:], ciphertext)
}

// MAC computes the first-level MAC over (ciphertext, address, counter),
// truncated to size bytes. The paper uses an 8-to-1 MAC: size is
// blockSize/8 (16B for a 128B block, 32B for 256B). The result is
// freshly allocated; hot paths use MACInto.
func (e *Engine) MAC(ciphertext []byte, addr int64, ctr Counter, size int) []byte {
	if size <= 0 || size > sha256.Size {
		panic(fmt.Sprintf("crypt: MAC size %d out of range", size))
	}
	out := make([]byte, size)
	e.MACInto(out, ciphertext, addr, ctr)
	return out
}

// MAC2 computes the 8-byte second-level MAC over a first-level MAC, the
// compressed form stored in PUB partial-update entries (Section IV-A).
func (e *Engine) MAC2(firstLevel []byte) uint64 {
	var out [8]byte
	e.keyedSum(out[:], e.stMAC2, firstLevel, nil)
	return binary.LittleEndian.Uint64(out[:])
}

// TreeHash computes the 8-byte keyed hash of a Merkle-tree child node
// identified by its address, used to build parent nodes.
func (e *Engine) TreeHash(addr int64, node []byte) uint64 {
	binary.LittleEndian.PutUint64(e.hdrBuf[0:8], uint64(addr))
	var out [8]byte
	e.keyedSum(out[:], e.stTree, e.hdrBuf[:8], node)
	return binary.LittleEndian.Uint64(out[:])
}

// TreeNodeWords bounds TreeHashWords' input: the child hashes of one
// Merkle-tree node.
const TreeNodeWords = 8

// TreeHashWords is TreeHash over words packed little-endian in order —
// a tree node's child hashes. The packing is staged in engine scratch,
// so hashing a node does not allocate.
func (e *Engine) TreeHashWords(addr int64, words []uint64) uint64 {
	if len(words) > TreeNodeWords {
		panic(fmt.Sprintf("crypt: %d tree-node words, at most %d", len(words), TreeNodeWords))
	}
	buf := e.nodeBuf[:8*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return e.TreeHash(addr, buf)
}

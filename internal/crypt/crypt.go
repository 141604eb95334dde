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
// MACs and tree hashes are prefix-keyed SHA-256 — SHA-256 over the MAC
// key, a domain-separation tag and the input, not HMAC — truncated to
// the architectural widths (the hardware would use a dedicated MAC unit
// such as an AES-GMAC engine; a keyed hash preserves the properties the
// model needs — determinism, key dependence, and collision resistance
// for tamper detection). Each hash is one pass: NewEngine stages the
// key once at the front of the engine's message buffer, and a call
// writes its tag and inputs after it. On amd64 CPUs with the SHA
// extensions the call then appends SHA-256's padding and compresses the
// buffer with one SHA-NI kernel call (sha_amd64.s); elsewhere it runs
// crypto/sha256.Sum256 over the same bytes, the reference the kernel is
// tested against. An input longer than the buffer (none on the
// simulator's paths) streams the same bytes through a crypto/sha256
// digest.
//
// An Engine carries reusable scratch state (the staged hash message and
// the pad buffers), so it is NOT safe for concurrent use. Each
// controller owns its engine; parallel experiment runs each build their
// own.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
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

	// msg stages one keyed-hash message: the MAC key (written once by
	// NewEngine), the domain tag, the inputs and, for the kernel,
	// SHA-256's padding.
	msg [msgBytes]byte

	// Per-op scratch. These live on the engine (not the stack) because
	// arguments passed through the cipher.Block interface escape: stack
	// arrays would heap-allocate on every call.
	ivBuf  [16]byte
	xorBuf [16]byte
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
	copy(e.msg[:len(e.macKey)], e.macKey[:])
	return e
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

// The staged keyed-hash message: e.msg[:msgKey] is the MAC key and the
// domain tag, and a hash's inputs follow them.
const (
	// msgKey is the offset of a keyed hash's inputs in e.msg.
	msgKey = 17
	// msgBytes holds every hot-path message with its padding. The
	// largest is MACInto over a 256 B block: 17 + 17 + 256 bytes plus
	// SHA-256's 9 padding bytes, five 64-byte blocks.
	msgBytes = 5 * sha256.BlockSize
	// macHdrBytes is MACInto's (address, counter) header: full 64-bit
	// address, full 64-bit major, and the minor in a dedicated byte.
	macHdrBytes = 17
)

// Domain-separation tags for the different MAC/hash uses.
const (
	domMAC1 byte = 1
	domMAC2 byte = 2
	domTree byte = 3
)

// sha256IV is SHA-256's initial hash value (FIPS 180-4, 5.3.3).
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// keyedSum returns SHA-256 over the MAC key, domain, the hdr input
// bytes the caller staged at e.msg[msgKey:] and then p. Allocation-free
// after engine construction while the message fits e.msg.
func (e *Engine) keyedSum(domain byte, hdr int, p []byte) (sum [sha256.Size]byte) {
	e.msg[msgKey-1] = domain
	n := msgKey + hdr + len(p)
	if n+9 > msgBytes {
		// No room for the padding's 0x80 marker and 8-byte length:
		// stream the same bytes through a digest.
		d := sha256.New()
		d.Write(e.msg[:msgKey+hdr])
		d.Write(p)
		d.Sum(sum[:0])
		return sum
	}
	copy(e.msg[msgKey+hdr:], p)
	if !useSHAKernel {
		return sha256.Sum256(e.msg[:n])
	}
	// Pad as SHA-256 does: 0x80, zeros, then the bit length big-endian
	// in the last 8 bytes of the final block.
	end := (n + 9 + sha256.BlockSize - 1) &^ (sha256.BlockSize - 1)
	e.msg[n] = 0x80
	clear(e.msg[n+1 : end-8])
	binary.BigEndian.PutUint64(e.msg[end-8:end], uint64(n)*8)
	h := sha256IV
	blockSHANI(&h, e.msg[:end])
	for i, w := range h {
		binary.BigEndian.PutUint32(sum[4*i:], w)
	}
	return sum
}

// MACInto computes the first-level MAC over (ciphertext, address,
// counter), truncated to len(dst) bytes, without allocating. The
// (address, counter) header is written straight into the staged
// message; no field overlaps.
func (e *Engine) MACInto(dst []byte, ciphertext []byte, addr int64, ctr Counter) {
	if len(dst) <= 0 || len(dst) > sha256.Size {
		panic(fmt.Sprintf("crypt: MAC size %d out of range", len(dst)))
	}
	hdr := e.msg[msgKey : msgKey+macHdrBytes]
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(addr))
	binary.LittleEndian.PutUint64(hdr[8:16], ctr.Major)
	hdr[16] = ctr.Minor
	sum := e.keyedSum(domMAC1, macHdrBytes, ciphertext)
	copy(dst, sum[:])
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
	sum := e.keyedSum(domMAC2, 0, firstLevel)
	return binary.LittleEndian.Uint64(sum[:8])
}

// TreeHash computes the 8-byte keyed hash of a Merkle-tree child node
// identified by its address, used to build parent nodes.
func (e *Engine) TreeHash(addr int64, node []byte) uint64 {
	binary.LittleEndian.PutUint64(e.msg[msgKey:], uint64(addr))
	sum := e.keyedSum(domTree, 8, node)
	return binary.LittleEndian.Uint64(sum[:8])
}

// TreeNodeWords bounds TreeHashWords' input: the child hashes of one
// Merkle-tree node.
const TreeNodeWords = 8

// TreeHashWords is TreeHash over words packed little-endian in order —
// a tree node's child hashes. The words are packed straight into the
// staged message, so hashing a node does not allocate.
func (e *Engine) TreeHashWords(addr int64, words []uint64) uint64 {
	if len(words) > TreeNodeWords {
		panic(fmt.Sprintf("crypt: %d tree-node words, at most %d", len(words), TreeNodeWords))
	}
	binary.LittleEndian.PutUint64(e.msg[msgKey:], uint64(addr))
	for i, w := range words {
		binary.LittleEndian.PutUint64(e.msg[msgKey+8+8*i:], w)
	}
	sum := e.keyedSum(domTree, 8+8*len(words), nil)
	return binary.LittleEndian.Uint64(sum[:8])
}

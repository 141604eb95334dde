// Package bitpack reads and writes arbitrary-width bit fields in byte
// slices. The Thoth design packs structures tighter than byte
// granularity: 7-bit minor counters inside counter blocks and 105-bit
// partial-update entries inside PUB blocks (Section IV-A), so both
// codecs are built on this package.
//
// Bit offsets are little-endian within the slice: bit i lives in byte
// i/8 at position i%8, matching how successive fields pack contiguously.
//
// A field is accessed as one unaligned little-endian 64-bit word at byte
// off/8, plus the following byte when the field spills past that word
// (off%8+width > 64). Only a field starting in the last 7 bytes of the
// slice, where no whole word fits, falls back to a byte loop.
package bitpack

import (
	"encoding/binary"
	"fmt"
)

// Get extracts width bits (1..64) starting at bit offset off.
func Get(b []byte, off, width int) uint64 {
	check(b, off, width)
	i, s := off>>3, uint(off&7)
	if i+8 > len(b) {
		return (tail(b[i:]) >> s) & mask(width)
	}
	v := binary.LittleEndian.Uint64(b[i:]) >> s
	if s+uint(width) > 64 {
		v |= uint64(b[i+8]) << (64 - s)
	}
	return v & mask(width)
}

// Set stores the low width bits of v (1..64) starting at bit offset off.
// Bits of v above width must be zero.
func Set(b []byte, off, width int, v uint64) {
	check(b, off, width)
	m := mask(width)
	if v&^m != 0 {
		panic(fmt.Sprintf("bitpack: value %#x exceeds %d bits", v, width))
	}
	i, s := off>>3, uint(off&7)
	if i+8 > len(b) {
		w := tail(b[i:])&^(m<<s) | v<<s
		for j := range b[i:] {
			b[i+j] = byte(w >> (8 * j))
		}
		return
	}
	w := binary.LittleEndian.Uint64(b[i:])
	binary.LittleEndian.PutUint64(b[i:], w&^(m<<s)|v<<s)
	if s+uint(width) > 64 {
		// The top s+width-64 bits of the field live in the spill byte.
		lo := 64 - s
		b[i+8] = b[i+8]&^byte(m>>lo) | byte(v>>lo)
	}
}

// mask returns a word with the low width bits set (width in 1..64).
func mask(width int) uint64 { return ^uint64(0) >> (64 - uint(width)) }

// tail loads t, fewer than 8 bytes, as a little-endian word. A field
// starting there fits in it whole: check bounds the field by the slice,
// so it ends within 8*len(t) <= 56 bits.
func tail(t []byte) uint64 {
	var w uint64
	for j := len(t) - 1; j >= 0; j-- {
		w = w<<8 | uint64(t[j])
	}
	return w
}

func check(b []byte, off, width int) {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bitpack: width %d out of range [1,64]", width))
	}
	if off < 0 || off+width > len(b)*8 {
		panic(fmt.Sprintf("bitpack: field [%d,+%d) exceeds %d bits", off, width, len(b)*8))
	}
}

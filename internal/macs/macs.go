// Package macs encodes and decodes MAC blocks. With the paper's 8-to-1
// MAC, every data block has a first-level MAC of blockSize/8 bytes, and
// one MAC block holds the MACs of 8 consecutive data blocks.
package macs

import "fmt"

// Get returns a copy of the MAC in the given slot of a MAC block.
func Get(block []byte, slot, macSize int) []byte {
	lo, hi := bounds(block, slot, macSize)
	out := make([]byte, macSize)
	copy(out, block[lo:hi])
	return out
}

// Slot returns the MAC in the given slot as a subslice of block — no
// copy. The result aliases block: it is only valid until the block is
// next modified.
func Slot(block []byte, slot, macSize int) []byte {
	lo, hi := bounds(block, slot, macSize)
	return block[lo:hi:hi]
}

// Set stores mac (exactly macSize bytes) into the given slot.
func Set(block []byte, slot, macSize int, mac []byte) {
	if len(mac) != macSize {
		panic(fmt.Sprintf("macs: MAC of %d bytes, slot size is %d", len(mac), macSize))
	}
	lo, hi := bounds(block, slot, macSize)
	copy(block[lo:hi], mac)
}

// Equal reports whether the slot currently holds exactly mac.
func Equal(block []byte, slot, macSize int, mac []byte) bool {
	if len(mac) != macSize {
		return false
	}
	lo, _ := bounds(block, slot, macSize)
	for i, v := range mac {
		if block[lo+i] != v {
			return false
		}
	}
	return true
}

func bounds(block []byte, slot, macSize int) (int, int) {
	if macSize <= 0 || slot < 0 || (slot+1)*macSize > len(block) {
		panic(fmt.Sprintf("macs: slot %d (size %d) out of range for %dB block", slot, macSize, len(block)))
	}
	return slot * macSize, (slot + 1) * macSize
}

package pub

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/layout"
	"repro/internal/nvm"
)

// Ring is the PUB: a persistent FIFO circular buffer of packed
// partial-update blocks living in the NVM's PUB region (Section IV-A:
// "the buffer itself is managed as a FIFO circular buffer where two
// counters are used, one to indicate the start and one to indicate the
// end", plus a base-address register).
//
// Head and tail are monotonically increasing block sequence numbers; the
// block position in memory is seq mod capacity. Architecturally the two
// counters live in processor registers inside the ADR domain; SaveCtl
// models the ADR flush that persists them into the control region at a
// crash, and LoadCtl restores them during recovery.
//
// The FIFO order is load-bearing: packed blocks are posted in request
// order, so the ring's contents — and therefore recovery's
// scan-and-merge — are identical whether a trace was persisted
// block-by-block or in batches (core.PersistBatch).
type Ring struct {
	lay  *layout.Layout
	dev  *nvm.Device
	head int64 // sequence number of the oldest live block
	tail int64 // sequence number of the next block to write
}

// NewRing returns an empty ring over the layout's PUB region.
func NewRing(lay *layout.Layout, dev *nvm.Device) *Ring {
	if lay.PUBBlocks() < 2 {
		panic("pub: ring needs at least two blocks")
	}
	return &Ring{lay: lay, dev: dev}
}

// Capacity returns the ring size in blocks.
func (r *Ring) Capacity() int64 { return r.lay.PUBBlocks() }

// Len returns the number of live blocks.
func (r *Ring) Len() int64 { return r.tail - r.head }

// Occupancy returns Len/Capacity.
func (r *Ring) Occupancy() float64 {
	return float64(r.Len()) / float64(r.Capacity())
}

// Full reports whether the next Push would require a Pop first
// (Section IV-A: "once the start equals the end, no more insertions are
// allowed until evictions occur").
func (r *Ring) Full() bool { return r.Len() == r.Capacity() }

// Empty reports whether the ring holds no blocks.
func (r *Ring) Empty() bool { return r.head == r.tail }

// Push writes one packed block at the tail and returns the NVM address
// it was written to (for timing/statistics). Push on a full ring panics:
// the controller must evict first.
func (r *Ring) Push(block []byte) int64 {
	if r.Full() {
		panic("pub: push on full ring")
	}
	addr := r.lay.PUBBlockAddr(r.tail)
	r.dev.WriteBlock(addr, block)
	r.tail++
	return addr
}

// Pop removes the oldest block, returning its contents and the NVM
// address it was read from. Pop on an empty ring panics. The contents
// are freshly allocated; hot paths use PopInto.
func (r *Ring) Pop() (block []byte, addr int64) {
	block = make([]byte, r.lay.BlockSize)
	addr = r.PopInto(block)
	return block, addr
}

// PopInto removes the oldest block, copying its contents into dst
// (exactly one block) and returning the NVM address it was read from.
func (r *Ring) PopInto(dst []byte) (addr int64) {
	if r.Empty() {
		panic("pub: pop on empty ring")
	}
	addr = r.lay.PUBBlockAddr(r.head)
	r.dev.ReadBlockInto(dst, addr)
	r.head++
	return addr
}

// Scan visits the live blocks oldest-first without consuming them, the
// order recovery merges in (Section IV-D: "scan through the partial
// updates in PUB in a reverse order (i.e., oldest entry to youngest
// entry)"), until fn returns false. Each block costs one counted device
// read into a single scratch block and is unpacked into one entry slice
// sized for a block up front, so the walk allocates nothing per block;
// fn must not retain the slice.
func (r *Ring) Scan(fn func(entries []Entry) bool) {
	entries := make([]Entry, 0, EntriesPerBlock(r.lay.BlockSize))
	r.scanBlocks(func(blk []byte) bool {
		entries = UnpackBlockAppend(entries[:0], len(blk), blk)
		return fn(entries)
	})
}

// PeekAll returns copies of the live blocks oldest-first without
// consuming them, with the same device reads as Scan.
func (r *Ring) PeekAll() [][]byte {
	out := make([][]byte, 0, r.Len())
	r.scanBlocks(func(blk []byte) bool {
		out = append(out, bytes.Clone(blk))
		return true
	})
	return out
}

// scanBlocks reads the live blocks head to tail into one scratch block,
// until fn returns false.
func (r *Ring) scanBlocks(fn func(blk []byte) bool) {
	blk := make([]byte, r.lay.BlockSize)
	for seq := r.head; seq < r.tail; seq++ {
		r.dev.ReadBlockInto(blk, r.lay.PUBBlockAddr(seq))
		if !fn(blk) {
			return
		}
	}
}

// ctl block layout: magic, head, tail.
const ctlMagic = 0x5448_4F54_5055_4221 // "THOTPUB!"

// SaveCtl persists the ring bounds into the control region (the ADR
// flush at a crash or clean shutdown).
func (r *Ring) SaveCtl() {
	blk := make([]byte, r.lay.BlockSize)
	binary.LittleEndian.PutUint64(blk[0:8], ctlMagic)
	binary.LittleEndian.PutUint64(blk[8:16], uint64(r.head))
	binary.LittleEndian.PutUint64(blk[16:24], uint64(r.tail))
	r.dev.WriteBlock(r.lay.CtlBase, blk)
}

// LoadCtl restores ring bounds from the control region. It returns an
// error if no valid control block is present (nothing was ever saved, or
// the region was corrupted).
func (r *Ring) LoadCtl() error {
	blk := r.dev.ReadBlock(r.lay.CtlBase)
	if binary.LittleEndian.Uint64(blk[0:8]) != ctlMagic {
		return fmt.Errorf("pub: control region holds no valid ring state")
	}
	head := int64(binary.LittleEndian.Uint64(blk[8:16]))
	tail := int64(binary.LittleEndian.Uint64(blk[16:24]))
	if head < 0 || tail < head || tail-head > r.Capacity() {
		return fmt.Errorf("pub: control region bounds invalid (head=%d tail=%d)", head, tail)
	}
	r.head, r.tail = head, tail
	return nil
}

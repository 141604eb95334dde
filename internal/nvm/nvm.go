// Package nvm models the non-volatile memory module: a byte-accurate
// backing store addressed at cache-block granularity, with device-wide
// block write and read counters.
//
// The device is purely functional; timing lives in internal/sim. Contents
// survive "crashes" by construction — a crash in this model is simply the
// loss of all volatile state (caches, in-flight metadata), after which
// recovery operates directly on the device.
//
// Storage is paged: blocks live in fixed-size pages (PageBlocks blocks
// each) allocated on first write, with a dense page-pointer table indexed
// by address. The controller's steady-state loop therefore performs no
// per-access allocation and no map lookups: View and ReadBlockInto borrow
// or copy straight out of page storage. Page data arrays are never
// reallocated once created, so a slice returned by View stays valid for
// the lifetime of the device — its *contents* change on the next
// WriteBlock to that block, which is exactly the aliasing a real memory
// module exhibits.
package nvm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageBlocks is the number of blocks per storage page (a power of two).
// It is an implementation granularity, not an architectural parameter:
// first-touch allocation happens per page, written-bit tracking stays
// per block.
const PageBlocks = 64

// page is one storage page: PageBlocks blocks of data and a written
// bitmap (one bit per block).
type page struct {
	data    []byte
	written uint64
}

// Device is one NVM module.
type Device struct {
	blockSize int
	capacity  int64
	pages     []*page // dense, indexed by blockIndex/PageBlocks; nil = untouched

	// stripes serializes concurrent Shard access per page: two blocks on
	// the same storage page share a stripe, so page allocation and the
	// written bitmap never race even when parallel recovery
	// workers touch disjoint blocks of one page. The serial controller
	// paths never lock.
	stripes *[lockStripes]sync.Mutex

	// totalWrites counts every block write since construction (or the
	// last ResetCounters), regardless of address; totalReads counts every
	// block read. Both are maintained with atomics on EVERY path —
	// serial Device methods included — because a serial writer and a
	// concurrent Shard writer may legally interleave on one device (a
	// pool front-end persisting while a recovery worker replays another
	// region), and mixing plain and atomic access to the same word is a
	// data race. Read them with TotalWrites/TotalReads.
	totalWrites int64
	totalReads  int64

	// zero backs View of never-written blocks. Per-device (not a lazily
	// grown global) so concurrent simulations never race initializing
	// it; it is allocated once at construction and only ever read.
	zero []byte
}

// lockStripes is the number of page-lock stripes (a power of two). Far
// more stripes than recovery workers keeps contention incidental.
const lockStripes = 128

// New returns a device of the given capacity in bytes and access
// granularity (block size) in bytes. Capacity must be a positive multiple
// of the block size.
func New(capacity int64, blockSize int) *Device {
	if blockSize <= 0 || capacity <= 0 || capacity%int64(blockSize) != 0 {
		panic(fmt.Sprintf("nvm: invalid geometry capacity=%d blockSize=%d", capacity, blockSize))
	}
	numBlocks := capacity / int64(blockSize)
	numPages := (numBlocks + PageBlocks - 1) / PageBlocks
	return &Device{
		blockSize: blockSize,
		capacity:  capacity,
		pages:     make([]*page, numPages),
		stripes:   new([lockStripes]sync.Mutex),
		zero:      make([]byte, blockSize),
	}
}

// BlockSize returns the access granularity in bytes.
func (d *Device) BlockSize() int { return d.blockSize }

// Capacity returns the module capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

func (d *Device) index(addr int64) int64 {
	if addr < 0 || addr >= d.capacity {
		panic(fmt.Sprintf("nvm: address %#x out of range [0,%#x)", addr, d.capacity))
	}
	if addr%int64(d.blockSize) != 0 {
		panic(fmt.Sprintf("nvm: address %#x not aligned to block size %d", addr, d.blockSize))
	}
	return addr / int64(d.blockSize)
}

// pageOf returns the page holding block idx, or nil if never written.
func (d *Device) pageOf(idx int64) *page {
	return d.pages[idx/PageBlocks]
}

// ensurePage returns the page holding block idx, allocating it on first
// touch.
func (d *Device) ensurePage(idx int64) *page {
	pi := idx / PageBlocks
	p := d.pages[pi]
	if p == nil {
		p = &page{data: make([]byte, PageBlocks*d.blockSize)}
		d.pages[pi] = p
	}
	return p
}

// blockSlice returns the storage slice for block idx within its page.
func (p *page) blockSlice(idx int64, blockSize int) []byte {
	off := (idx % PageBlocks) * int64(blockSize)
	return p.data[off : off+int64(blockSize) : off+int64(blockSize)]
}

// View returns the device's own storage for the block at the given
// block-aligned byte address, counting one device read. The slice is
// read-only by contract and aliases the module: it stays valid
// indefinitely, but its contents change when the block is next written.
// Never-written blocks view as zeros.
func (d *Device) View(addr int64) []byte {
	idx := d.index(addr)
	atomic.AddInt64(&d.totalReads, 1)
	if p := d.pageOf(idx); p != nil {
		return p.blockSlice(idx, d.blockSize)
	}
	return d.zero
}

// ReadBlockInto copies the block at the given block-aligned byte address
// into dst (which must be exactly one block long), counting one device
// read. Never-written blocks read as zeros.
func (d *Device) ReadBlockInto(dst []byte, addr int64) {
	if len(dst) != d.blockSize {
		panic(fmt.Sprintf("nvm: read into %d bytes, block size is %d", len(dst), d.blockSize))
	}
	idx := d.index(addr)
	atomic.AddInt64(&d.totalReads, 1)
	if p := d.pageOf(idx); p != nil {
		copy(dst, p.blockSlice(idx, d.blockSize))
		return
	}
	clear(dst)
}

// ReadBlock returns a copy of the block at the given block-aligned byte
// address. Never-written blocks read as zeros (NVM modules ship zeroed in
// this model). Hot paths use View or ReadBlockInto instead; ReadBlock
// allocates its result.
func (d *Device) ReadBlock(addr int64) []byte {
	out := make([]byte, d.blockSize)
	d.ReadBlockInto(out, addr)
	return out
}

// Peek is ReadBlock without touching the read counter; used by tests and
// invariant checks that must not perturb statistics.
func (d *Device) Peek(addr int64) []byte {
	idx := d.index(addr)
	out := make([]byte, d.blockSize)
	if p := d.pageOf(idx); p != nil {
		copy(out, p.blockSlice(idx, d.blockSize))
	}
	return out
}

// PeekInto is Peek into caller-owned scratch: it copies the block at the
// given block-aligned byte address into dst (exactly one block long)
// without touching the read counter and without allocating. Page
// re-encryption and recovery use it to read blocks without perturbing
// device statistics.
func (d *Device) PeekInto(dst []byte, addr int64) {
	if len(dst) != d.blockSize {
		panic(fmt.Sprintf("nvm: peek into %d bytes, block size is %d", len(dst), d.blockSize))
	}
	idx := d.index(addr)
	if p := d.pageOf(idx); p != nil {
		copy(dst, p.blockSlice(idx, d.blockSize))
		return
	}
	clear(dst)
}

// WriteBlock stores data (exactly one block) at the block-aligned byte
// address and counts one device write.
func (d *Device) WriteBlock(addr int64, data []byte) {
	if len(data) != d.blockSize {
		panic(fmt.Sprintf("nvm: write of %d bytes, block size is %d", len(data), d.blockSize))
	}
	idx := d.index(addr)
	p := d.ensurePage(idx)
	copy(p.blockSlice(idx, d.blockSize), data)
	p.written |= 1 << uint(idx%PageBlocks)
	atomic.AddInt64(&d.totalWrites, 1)
}

// TotalWrites returns the number of block writes since construction or
// the last ResetCounters. Safe to call concurrently with any writer.
func (d *Device) TotalWrites() int64 { return atomic.LoadInt64(&d.totalWrites) }

// TotalReads returns the number of counted block reads since
// construction or the last ResetCounters. Safe to call concurrently.
func (d *Device) TotalReads() int64 { return atomic.LoadInt64(&d.totalReads) }

// lockFor returns the stripe mutex guarding block idx's page.
func (d *Device) lockFor(idx int64) *sync.Mutex {
	return &d.stripes[uint64(idx/PageBlocks)%lockStripes]
}

// Shard returns a concurrency-safe handle on the device for parallel
// recovery workers. PeekInto and WriteBlock through a Shard serialize on
// striped per-page locks — blocks sharing a storage page share a stripe
// — so first-touch page allocation and the written-bitmap updates
// never race; TotalWrites is maintained atomically. The handle makes
// concurrent access *safe*, not ordered: callers must still partition
// the blocks they write so no two goroutines write the same block.
func (d *Device) Shard() Shard { return Shard{d} }

// Shard is the concurrent device view returned by Device.Shard.
type Shard struct{ d *Device }

// PeekInto copies the block at addr into dst (exactly one block long)
// without touching the read counter, like Device.PeekInto, but safe
// against concurrent Shard writes to other blocks of the same page.
func (s Shard) PeekInto(dst []byte, addr int64) {
	d := s.d
	if len(dst) != d.blockSize {
		panic(fmt.Sprintf("nvm: peek into %d bytes, block size is %d", len(dst), d.blockSize))
	}
	idx := d.index(addr)
	mu := d.lockFor(idx)
	mu.Lock()
	if p := d.pageOf(idx); p != nil {
		copy(dst, p.blockSlice(idx, d.blockSize))
	} else {
		clear(dst)
	}
	mu.Unlock()
}

// WriteBlock stores data (exactly one block) at addr with the same
// semantics and accounting as Device.WriteBlock, safely against
// concurrent Shard access to the rest of the page.
func (s Shard) WriteBlock(addr int64, data []byte) {
	d := s.d
	if len(data) != d.blockSize {
		panic(fmt.Sprintf("nvm: write of %d bytes, block size is %d", len(data), d.blockSize))
	}
	idx := d.index(addr)
	mu := d.lockFor(idx)
	mu.Lock()
	p := d.ensurePage(idx)
	copy(p.blockSlice(idx, d.blockSize), data)
	p.written |= 1 << uint(idx%PageBlocks)
	mu.Unlock()
	atomic.AddInt64(&d.totalWrites, 1)
}

// setBlock stores contents without touching the write counter (image
// loading).
func (d *Device) setBlock(idx int64, data []byte) {
	p := d.ensurePage(idx)
	copy(p.blockSlice(idx, d.blockSize), data)
	p.written |= 1 << uint(idx%PageBlocks)
}

// ReadRange copies n bytes starting at an arbitrary (unaligned) byte
// address, crossing block boundaries as needed. It does not count as
// device reads; it exists for recovery-time scanning and debugging.
func (d *Device) ReadRange(addr int64, n int) []byte {
	if addr < 0 || n < 0 || addr+int64(n) > d.capacity {
		panic(fmt.Sprintf("nvm: range [%#x,+%d) out of bounds", addr, n))
	}
	out := make([]byte, n)
	bs := int64(d.blockSize)
	for off := int64(0); off < int64(n); {
		idx := (addr + off) / bs
		in := (addr + off) % bs
		take := bs - in
		if rem := int64(n) - off; take > rem {
			take = rem
		}
		if p := d.pageOf(idx); p != nil && p.written&(1<<uint(idx%PageBlocks)) != 0 {
			b := p.blockSlice(idx, d.blockSize)
			copy(out[off:off+take], b[in:in+take])
		}
		off += take
	}
	return out
}

// forEachWrittenIdx visits every ever-written block index in [lo,hi), in
// ascending order.
func (d *Device) forEachWrittenIdx(lo, hi int64, fn func(idx int64)) {
	for pi := lo / PageBlocks; pi*PageBlocks < hi && pi < int64(len(d.pages)); pi++ {
		p := d.pages[pi]
		if p == nil || p.written == 0 {
			continue
		}
		base := pi * PageBlocks
		for s := int64(0); s < PageBlocks; s++ {
			idx := base + s
			if idx < lo || idx >= hi {
				continue
			}
			if p.written&(1<<uint(s)) != 0 {
				fn(idx)
			}
		}
	}
}

// ForEachWritten visits every ever-written block whose address falls in
// [base, base+size), in ascending address order. Recovery uses this to
// rebuild integrity state over the counter region without scanning the
// full (sparse) address space. The block slice is borrowed device
// storage: callers must not retain it across writes.
func (d *Device) ForEachWritten(base, size int64, fn func(addr int64, block []byte)) {
	if base < 0 || size < 0 || base+size > d.capacity {
		panic(fmt.Sprintf("nvm: region [%#x,+%d) out of bounds", base, size))
	}
	bs := int64(d.blockSize)
	d.forEachWrittenIdx(base/bs, (base+size)/bs, func(idx int64) {
		fn(idx*bs, d.pageOf(idx).blockSlice(idx, d.blockSize))
	})
}

// Written reports whether the block at addr has ever been written.
func (d *Device) Written(addr int64) bool {
	idx := d.index(addr)
	p := d.pageOf(idx)
	return p != nil && p.written&(1<<uint(idx%PageBlocks)) != 0
}

// ResetCounters zeroes the write and read counters (used between
// warm-up and the measured phase of an experiment).
func (d *Device) ResetCounters() {
	atomic.StoreInt64(&d.totalWrites, 0)
	atomic.StoreInt64(&d.totalReads, 0)
}

// Clone returns a deep copy of the device, contents and counters.
// Recovery tests clone the post-crash image so they can verify the
// recovery procedure did not corrupt unrelated state.
func (d *Device) Clone() *Device {
	c := New(d.capacity, d.blockSize)
	for pi, p := range d.pages {
		if p == nil {
			continue
		}
		c.pages[pi] = &page{data: append([]byte(nil), p.data...), written: p.written}
	}
	atomic.StoreInt64(&c.totalWrites, atomic.LoadInt64(&d.totalWrites))
	atomic.StoreInt64(&c.totalReads, atomic.LoadInt64(&d.totalReads))
	return c
}

// writtenCount returns the number of ever-written blocks.
func (d *Device) writtenCount() int64 {
	var n int64
	for _, p := range d.pages {
		if p == nil {
			continue
		}
		w := p.written
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// Equal reports whether two devices have identical contents (counters
// are ignored). Zero blocks compare equal to absent blocks.
func (d *Device) Equal(o *Device) bool {
	if d.capacity != o.capacity || d.blockSize != o.blockSize {
		return false
	}
	check := func(a, b *Device) bool {
		ok := true
		a.forEachWrittenIdx(0, a.capacity/int64(a.blockSize), func(idx int64) {
			if !ok {
				return
			}
			ab := a.pageOf(idx).blockSlice(idx, a.blockSize)
			var bb []byte
			if p := b.pageOf(idx); p != nil && p.written&(1<<uint(idx%PageBlocks)) != 0 {
				bb = p.blockSlice(idx, b.blockSize)
			}
			for i, v := range ab {
				var w byte
				if bb != nil {
					w = bb[i]
				}
				if v != w {
					ok = false
					return
				}
			}
		})
		return ok
	}
	return check(d, o) && check(o, d)
}

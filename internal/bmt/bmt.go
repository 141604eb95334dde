// Package bmt implements the Bonsai Merkle Tree (Rogers et al., MICRO'07)
// over the encryption counters, as used by the paper (Section II-A):
// the tree hashes counter blocks, data freshness comes from MACs bound to
// those counters, and the root never leaves the processor.
//
// Untouched counter blocks and all-zero nodes contribute a zero hash,
// and node storage is allocated one chunk of nodes at a time on first
// touch, so memory follows the touched working set rather than the
// module capacity. Two usage modes matter to the model:
//
//   - During execution the modeled root is eager over the *logical*
//     (most recent) counter values — this is the Anubis-style eagerly
//     updated persistent root the paper's baseline and Thoth both rely
//     on for post-crash verification. NVM copies of tree nodes are only
//     persisted lazily (natural MT-cache eviction), which is safe
//     precisely because the root is eager. The host computes a hash
//     only when it is observed: an update marks its path stale, writing
//     a node back rehashes the stale subtree beneath that node, and
//     reading the root rehashes whatever is still stale. A hash depends
//     only on the final leaf contents beneath it, so every node and the
//     root read exactly as eager recomputation would leave them.
//
//   - During recovery, Rebuild recomputes the tree bottom-up from the
//     counter region of the NVM image; the resulting root must match the
//     persisted root or tampering/corruption is reported.
package bmt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/crypt"
	"repro/internal/layout"
	"repro/internal/nvm"
)

// chunkShift sets the unit the tree allocates on first touch: 64
// consecutive nodes of one level, 4 KiB of child hashes.
const (
	chunkShift = 6
	chunkNodes = 1 << chunkShift
)

// chunk holds chunkNodes consecutive nodes of one level.
type chunk struct {
	// hash[i] is node i's 8 child hashes.
	hash [chunkNodes][layout.TreeArity]uint64
	// stale[i] has bit s set while hash[i][s] is out of date.
	stale [chunkNodes]uint8
	// leaf, on level-0 chunks only, maps child s of node i, a counter
	// block, to the arena slot buffering its contents while stale:
	// leaf[i*TreeArity+s].
	leaf []int32
}

// Tree is an 8-ary Merkle tree over counter blocks, stored as dense
// per-level node arrays with an 8-bit stale-child mask per node.
//
// Update buffers a counter block and sets stale bits up its path,
// stopping at the first ancestor that is already stale: a node with
// any stale bit always has its own bit set in its parent, and the top
// node in the root register. Reading a node's bytes rehashes only that
// node's stale subtree — for a level-0 node, at most its 8 buffered
// counter blocks — and Root rehashes whatever is still stale. Repeated
// updates to a counter block between observations — the common case,
// since one counter block covers a whole page — cost one leaf hash.
type Tree struct {
	lay *layout.Layout
	eng *crypt.Engine

	// levels[l][c] holds nodes [c*chunkNodes, (c+1)*chunkNodes) of
	// level l, nil until one of them is touched.
	levels [][]*chunk
	root   uint64
	// rootStale is set while root is out of date with the top node.
	rootStale bool

	// arena buffers the contents of stale counter blocks, one
	// BlockSize slot each; free lists the slots not in use.
	arena []byte
	free  []int32
}

// New returns an empty tree (all-zero counters, zero root).
func New(lay *layout.Layout, eng *crypt.Engine) *Tree {
	t := &Tree{lay: lay, eng: eng, levels: make([][]*chunk, lay.TreeLevels())}
	for l, n := range lay.TreeNodes {
		t.levels[l] = make([]*chunk, (n+chunkNodes-1)>>chunkShift)
	}
	return t
}

// Root returns the current root hash, rehashing whatever is stale
// first. Architecturally this register is inside the processor's
// persistence domain; callers persist it via the control region at crash
// time.
func (t *Tree) Root() uint64 {
	if t.rootStale {
		top := len(t.levels) - 1
		t.root = hashNodeBlock(t.lay, t.eng, top, 0, t.refresh(top, 0))
		t.rootStale = false
	}
	return t.root
}

// hashCtrBlock computes the hash of one counter block's contents, with
// the sparse-tree zero default for all-zero blocks. Free function so the
// serial Tree and the parallel rebuild share one definition.
func hashCtrBlock(lay *layout.Layout, eng *crypt.Engine, ctrIdx int64, data []byte) uint64 {
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return 0
	}
	addr := lay.CtrBase + ctrIdx*int64(lay.BlockSize)
	return eng.TreeHash(addr, data)
}

// hashNodeBlock computes the hash of a node's packed child hashes, with
// the zero default for all-zero nodes.
func hashNodeBlock(lay *layout.Layout, eng *crypt.Engine, level int, idx int64, n *[layout.TreeArity]uint64) uint64 {
	if n == nil || *n == [layout.TreeArity]uint64{} {
		return 0
	}
	return eng.TreeHashWords(lay.TreeNodeAddr(level, idx), n[:])
}

// Update records new contents for counter block ctrIdx (copying data into
// tree-owned scratch) and returns the number of tree levels the change
// touches (for latency accounting: one hash per level plus the leaf
// hash). The rehash itself is deferred until the block's level-0 node or
// the root is observed.
func (t *Tree) Update(ctrIdx int64, data []byte) int {
	if ctrIdx < 0 || ctrIdx >= t.lay.CtrBytes/int64(t.lay.BlockSize) {
		panic(fmt.Sprintf("bmt: counter index %d out of range", ctrIdx))
	}
	if len(data) != t.lay.BlockSize {
		panic(fmt.Sprintf("bmt: counter block of %d bytes, want %d", len(data), t.lay.BlockSize))
	}
	parent, slot := layout.TreeParent(ctrIdx)
	c, i := t.chunkOf(0, parent)
	k := i*layout.TreeArity + slot
	if c.stale[i]&(1<<slot) == 0 {
		c.leaf[k] = t.allocSlot()
		t.markStale(parent, slot)
	}
	copy(t.buf(c.leaf[k]), data)
	return len(t.levels)
}

// markStale sets bit slot of level-0 node idx, then the node's own bit
// in each ancestor, stopping at the first node that was already stale:
// its ancestors are marked already.
func (t *Tree) markStale(idx int64, slot int) {
	for level := range t.levels {
		c, i := t.chunkOf(level, idx)
		was := c.stale[i]
		c.stale[i] |= 1 << slot
		if was != 0 {
			return
		}
		idx, slot = layout.TreeParent(idx)
	}
	t.rootStale = true
}

// chunkOf returns the chunk holding node idx of level, allocating it on
// first touch, and the node's position in it.
func (t *Tree) chunkOf(level int, idx int64) (*chunk, int) {
	cs := t.levels[level]
	c := cs[idx>>chunkShift]
	if c == nil {
		c = new(chunk)
		if level == 0 {
			c.leaf = make([]int32, chunkNodes*layout.TreeArity)
		}
		cs[idx>>chunkShift] = c
	}
	return c, int(idx & (chunkNodes - 1))
}

// allocSlot takes an arena slot off the free list, growing the arena
// when none is free. The free list keeps room for every slot, so
// releasing one never allocates: a tree whose buffered set has peaked
// allocates nothing more.
func (t *Tree) allocSlot() int32 {
	if n := len(t.free); n > 0 {
		k := t.free[n-1]
		t.free = t.free[:n-1]
		return k
	}
	k := int32(len(t.arena) / t.lay.BlockSize)
	t.arena = append(t.arena, make([]byte, t.lay.BlockSize)...)
	t.free = slices.Grow(t.free, int(k)+1)
	return k
}

// buf returns arena slot k.
func (t *Tree) buf(k int32) []byte {
	bs := t.lay.BlockSize
	return t.arena[int(k)*bs : (int(k)+1)*bs]
}

// refresh rehashes the stale children of node idx at level, refreshing
// each stale child node first, and returns the node's child hashes: nil
// for a node never touched, whose hashes are all zero. Hashing a
// buffered counter block releases its arena slot.
func (t *Tree) refresh(level int, idx int64) *[layout.TreeArity]uint64 {
	c := t.levels[level][idx>>chunkShift]
	if c == nil {
		return nil
	}
	i := int(idx & (chunkNodes - 1))
	n := &c.hash[i]
	for m := c.stale[i]; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros8(m)
		child := idx*layout.TreeArity + int64(slot)
		if level == 0 {
			k := c.leaf[i*layout.TreeArity+slot]
			n[slot] = hashCtrBlock(t.lay, t.eng, child, t.buf(k))
			t.free = append(t.free, k)
		} else {
			n[slot] = hashNodeBlock(t.lay, t.eng, level-1, child, t.refresh(level-1, child))
		}
	}
	c.stale[i] = 0
	return n
}

// NodeBytesInto writes the persistable contents of a tree node into
// dst, a full cache block (child hashes in the first 64 bytes, zero
// padding after), rehashing the node's stale subtree first. The MT
// cache writes this to NVM on lazy eviction.
func (t *Tree) NodeBytesInto(dst []byte, level int, idx int64) {
	clear(dst)
	if n := t.refresh(level, idx); n != nil {
		for i, h := range n {
			binary.LittleEndian.PutUint64(dst[i*8:], h)
		}
	}
}

// Path returns the (level, nodeIndex) pairs from the leaf level to the
// top for a counter block, used by the controller to drive the MT cache.
func (t *Tree) Path(ctrIdx int64) []PathStep {
	steps := make([]PathStep, 0, len(t.levels))
	child := ctrIdx
	for l := 0; l < len(t.levels); l++ {
		parent, _ := layout.TreeParent(child)
		steps = append(steps, PathStep{Level: l, Index: parent, Addr: t.lay.TreeNodeAddr(l, parent)})
		child = parent
	}
	return steps
}

// PathStep is one node on a leaf-to-root path.
type PathStep struct {
	Level int
	Index int64
	Addr  int64
}

// Rebuild computes the tree bottom-up from the counter region of an NVM
// image and returns the resulting root and the number of written
// counter blocks it hashed (the leaves).
func Rebuild(lay *layout.Layout, eng *crypt.Engine, dev *nvm.Device) (root uint64, leaves int64) {
	t := New(lay, eng)
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(addr int64, block []byte) {
		t.Update(lay.CtrIndex(addr), block)
		leaves++
	})
	return t.Root(), leaves
}

// Package bmt implements the Bonsai Merkle Tree (Rogers et al., MICRO'07)
// over the encryption counters, as used by the paper (Section II-A):
// the tree hashes counter blocks, data freshness comes from MACs bound to
// those counters, and the root never leaves the processor.
//
// The tree is sparse with a zero default: untouched counter blocks and
// all-zero nodes contribute a zero hash, so memory scales with the
// touched working set rather than the module capacity. Two usage modes
// matter to the model:
//
//   - During execution the tree is maintained eagerly over the *logical*
//     (most recent) counter values — this is the Anubis-style eagerly
//     updated persistent root the paper's baseline and Thoth both rely
//     on for post-crash verification. NVM copies of tree nodes are only
//     persisted lazily (natural MT-cache eviction), which is safe
//     precisely because the root is eager.
//
//   - During recovery, Rebuild recomputes the tree bottom-up from the
//     counter region of the NVM image; the resulting root must match the
//     persisted root or tampering/corruption is reported.
package bmt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crypt"
	"repro/internal/layout"
	"repro/internal/nvm"
)

// Tree is a sparse 8-ary Merkle tree over counter blocks.
//
// Counter-block updates are buffered and the affected paths rehashed in
// one batched bottom-up pass when the root or a node's bytes are next
// observed. Hashes depend only on the final leaf contents, so the result
// is identical to eager per-update recomputation, but repeated updates to
// the same counter block between observations — the common case, since 8
// data blocks share one counter block — cost one path instead of many.
type Tree struct {
	lay *layout.Layout
	eng *crypt.Engine

	// ctrHash[i] is the hash of counter block i; absent means zero.
	ctrHash map[int64]uint64
	// nodes[l][j] holds the 8 child hashes of node j at level l.
	nodes []map[int64]*[layout.TreeArity]uint64
	root  uint64

	// dirty holds the latest contents of updated counter blocks whose
	// paths have not been rehashed yet; values are reusable per-index
	// buffers recycled through free.
	dirty map[int64][]byte
	free  [][]byte
	// pendA/pendB are reusable scratch sets for the level-by-level flush.
	pendA map[int64]struct{}
	pendB map[int64]struct{}
}

// New returns an empty tree (all-zero counters, zero root).
func New(lay *layout.Layout, eng *crypt.Engine) *Tree {
	t := &Tree{
		lay:     lay,
		eng:     eng,
		ctrHash: make(map[int64]uint64),
		nodes:   make([]map[int64]*[layout.TreeArity]uint64, lay.TreeLevels()),
		dirty:   make(map[int64][]byte),
		pendA:   make(map[int64]struct{}),
		pendB:   make(map[int64]struct{}),
	}
	for i := range t.nodes {
		t.nodes[i] = make(map[int64]*[layout.TreeArity]uint64)
	}
	return t
}

// Root returns the current root hash, rehashing any buffered updates
// first. Architecturally this register is inside the processor's
// persistence domain; callers persist it via the control region at crash
// time.
func (t *Tree) Root() uint64 {
	t.flush()
	return t.root
}

// hashCtr computes the hash of one counter block's contents.
func (t *Tree) hashCtr(ctrIdx int64, data []byte) uint64 {
	return hashCtrBlock(t.lay, t.eng, ctrIdx, data)
}

// hashNode computes the hash of a node's packed child hashes, with the
// zero default for all-zero nodes.
func (t *Tree) hashNode(level int, idx int64, n *[layout.TreeArity]uint64) uint64 {
	return hashNodeBlock(t.lay, t.eng, level, idx, n)
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
// hash). The rehash itself is deferred to the next Root or NodeBytesInto.
func (t *Tree) Update(ctrIdx int64, data []byte) int {
	if ctrIdx < 0 || ctrIdx >= t.lay.CtrBytes/int64(t.lay.BlockSize) {
		panic(fmt.Sprintf("bmt: counter index %d out of range", ctrIdx))
	}
	buf := t.dirty[ctrIdx]
	if len(buf) != len(data) {
		if n := len(t.free); n > 0 && len(t.free[n-1]) == len(data) {
			buf = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			buf = make([]byte, len(data))
		}
	}
	copy(buf, data)
	t.dirty[ctrIdx] = buf
	return len(t.nodes)
}

// flush rehashes every buffered counter-block update in one batched
// bottom-up pass: each dirty leaf is hashed once, then each affected node
// is hashed once per level. Node hashes depend only on final child
// values, so the result matches eager per-update recomputation.
func (t *Tree) flush() {
	if len(t.dirty) == 0 {
		return
	}
	pend := t.pendA
	clear(pend)
	for ctrIdx, data := range t.dirty {
		h := t.hashCtr(ctrIdx, data)
		t.ctrHash[ctrIdx] = h
		parent, slot := layout.TreeParent(ctrIdx)
		n := t.nodes[0][parent]
		if n == nil {
			n = new([layout.TreeArity]uint64)
			t.nodes[0][parent] = n
		}
		n[slot] = h
		pend[parent] = struct{}{}
		t.free = append(t.free, data)
	}
	clear(t.dirty)
	next := t.pendB
	for l := 0; l < len(t.nodes); l++ {
		clear(next)
		for idx := range pend {
			h := t.hashNode(l, idx, t.nodes[l][idx])
			if l == len(t.nodes)-1 {
				t.root = h
				continue
			}
			parent, slot := layout.TreeParent(idx)
			n := t.nodes[l+1][parent]
			if n == nil {
				n = new([layout.TreeArity]uint64)
				t.nodes[l+1][parent] = n
			}
			n[slot] = h
			next[parent] = struct{}{}
		}
		pend, next = next, pend
	}
	t.pendA, t.pendB = pend, next
}

// NodeBytesInto writes the persistable contents of a tree node into
// dst, a full cache block (child hashes in the first 64 bytes, zero
// padding after), rehashing any buffered updates first. The MT cache
// writes this to NVM on lazy eviction.
func (t *Tree) NodeBytesInto(dst []byte, level int, idx int64) {
	t.flush()
	clear(dst)
	if n := t.nodes[level][idx]; n != nil {
		for i, h := range n {
			binary.LittleEndian.PutUint64(dst[i*8:], h)
		}
	}
}

// Path returns the (level, nodeIndex) pairs from the leaf level to the
// top for a counter block, used by the controller to drive the MT cache.
func (t *Tree) Path(ctrIdx int64) []PathStep {
	steps := make([]PathStep, 0, len(t.nodes))
	child := ctrIdx
	for l := 0; l < len(t.nodes); l++ {
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
// image and returns the resulting root. It does not modify t.
func Rebuild(lay *layout.Layout, eng *crypt.Engine, dev *nvm.Device) uint64 {
	t := New(lay, eng)
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(addr int64, block []byte) {
		t.Update(lay.CtrIndex(addr), block)
	})
	return t.Root()
}

// Verify reports whether the tree rebuilt from the device matches the
// expected root.
func Verify(lay *layout.Layout, eng *crypt.Engine, dev *nvm.Device, wantRoot uint64) bool {
	return Rebuild(lay, eng, dev) == wantRoot
}

package bmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/crypt"
	"repro/internal/layout"
)

// refTree is the original map-based, flush-on-observe tree, kept
// verbatim (renamed) as the reference the dense stale-mask Tree must
// match bit for bit: every observation rehashes every buffered counter
// block and every ancestor up to the root.
type refTree struct {
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

// newRef returns an empty tree (all-zero counters, zero root).
func newRef(lay *layout.Layout, eng *crypt.Engine) *refTree {
	t := &refTree{
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
// first.
func (t *refTree) Root() uint64 {
	t.flush()
	return t.root
}

// hashCtr computes the hash of one counter block's contents.
func (t *refTree) hashCtr(ctrIdx int64, data []byte) uint64 {
	return hashCtrBlock(t.lay, t.eng, ctrIdx, data)
}

// hashNode computes the hash of a node's packed child hashes, with the
// zero default for all-zero nodes.
func (t *refTree) hashNode(level int, idx int64, n *[layout.TreeArity]uint64) uint64 {
	return hashNodeBlock(t.lay, t.eng, level, idx, n)
}

// Update records new contents for counter block ctrIdx (copying data into
// tree-owned scratch) and returns the number of tree levels the change
// touches. The rehash itself is deferred to the next Root or
// NodeBytesInto.
func (t *refTree) Update(ctrIdx int64, data []byte) int {
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
func (t *refTree) flush() {
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
// padding after), rehashing any buffered updates first.
func (t *refTree) NodeBytesInto(dst []byte, level int, idx int64) {
	t.flush()
	clear(dst)
	if n := t.nodes[level][idx]; n != nil {
		for i, h := range n {
			binary.LittleEndian.PutUint64(dst[i*8:], h)
		}
	}
}

// refLayouts are the geometries the differential runs over: the
// package's 1 GiB test layout (six levels), steady-ctl's 32 MiB machine
// (five levels) and a one-page data region, whose single counter block
// sits under a tree of one level and one node.
var refLayouts = []struct {
	name   string
	mem    int64
	levels int
}{
	{"1GiB", 1 << 30, 6},
	{"32MiB", 32 << 20, 5},
	{"onePage", 8 << 10, 1},
}

func refLayout(tb testing.TB, mem int64, levels int) *layout.Layout {
	tb.Helper()
	cfg := config.Default()
	cfg.MemBytes = mem
	cfg.PUBBytes = 1 << 20
	if mem < 1<<20 {
		cfg.PUBBytes = 4 * int64(cfg.BlockSize)
		cfg.PCBEntries = 2
		cfg.CtrCacheBytes, cfg.MACCacheBytes, cfg.MTCacheBytes = 128, 128, 128
	}
	lay, err := layout.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if lay.TreeLevels() != levels {
		tb.Fatalf("%d-byte module: %d tree levels, want %d", mem, lay.TreeLevels(), levels)
	}
	return lay
}

// chooser supplies the choices of a differential run: a seeded
// *rand.Rand in the test, the fuzzer's bytes in FuzzTree.
type chooser interface{ Intn(n int) int }

// treeDiff drives a Tree and the reference through the same updates and
// observations. Updates concentrate on a hot set of counter blocks, so
// blocks are rewritten between observations; observations pick nodes on
// a hot block's path or anywhere in the tree, so other subtrees are
// read while stale bits are pending.
type treeDiff struct {
	lay       *layout.Layout
	tr        *Tree
	ref       *refTree
	hot       []int64
	zeroPct   int
	blk       []byte
	got, want []byte
}

func newTreeDiff(lay *layout.Layout, hot []int64, zeroPct int) *treeDiff {
	eng := crypt.NewEngine(1)
	return &treeDiff{
		lay: lay, tr: New(lay, eng), ref: newRef(lay, eng), hot: hot, zeroPct: zeroPct,
		blk: make([]byte, lay.BlockSize), got: make([]byte, lay.BlockSize), want: make([]byte, lay.BlockSize),
	}
}

func (d *treeDiff) ctrs() int { return int(d.lay.CtrBytes / int64(d.lay.BlockSize)) }

// step applies one update or observation and reports a disagreement.
func (d *treeDiff) step(ch chooser) error {
	switch r := ch.Intn(100); {
	case r < 60:
		idx := int64(ch.Intn(d.ctrs()))
		if ch.Intn(4) > 0 {
			idx = d.hot[ch.Intn(len(d.hot))]
		}
		clear(d.blk)
		if ch.Intn(100) >= d.zeroPct {
			d.blk[0] = byte(ch.Intn(256))
			d.blk[ch.Intn(len(d.blk))] = byte(1 + ch.Intn(255))
		}
		if got, want := d.tr.Update(idx, d.blk), d.ref.Update(idx, d.blk); got != want {
			return fmt.Errorf("Update(%d) touched %d levels, reference %d", idx, got, want)
		}
	case r < 95:
		level := ch.Intn(d.lay.TreeLevels())
		node := int64(ch.Intn(int(d.lay.TreeNodes[level])))
		if ch.Intn(2) == 0 {
			node = ancestor(d.hot[ch.Intn(len(d.hot))], level)
		}
		return d.node(level, node)
	default:
		return d.root()
	}
	return nil
}

// ancestor is the index of counter block ctrIdx's node at level.
func ancestor(ctrIdx int64, level int) int64 {
	for l := 0; l <= level; l++ {
		ctrIdx, _ = layout.TreeParent(ctrIdx)
	}
	return ctrIdx
}

func (d *treeDiff) node(level int, idx int64) error {
	d.tr.NodeBytesInto(d.got, level, idx)
	d.ref.NodeBytesInto(d.want, level, idx)
	if !bytes.Equal(d.got, d.want) {
		return fmt.Errorf("node (%d,%d) = %x, reference %x", level, idx, d.got, d.want)
	}
	return nil
}

func (d *treeDiff) root() error {
	if got, want := d.tr.Root(), d.ref.Root(); got != want {
		return fmt.Errorf("root %#x, reference %#x", got, want)
	}
	return nil
}

// sweep compares every node on a hot block's path, then the root.
func (d *treeDiff) sweep() error {
	for _, c := range d.hot {
		for l := 0; l < d.lay.TreeLevels(); l++ {
			if err := d.node(l, ancestor(c, l)); err != nil {
				return err
			}
		}
	}
	return d.root()
}

// TestTreeMatchesReference drives seeded random sequences of Update,
// NodeBytesInto at every level and Root through the stale-mask Tree and
// the map-based reference, comparing node bytes and root after every
// observation and every hot path at the end.
func TestTreeMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		hot     func(rng *rand.Rand, ctrs int) []int64
		zeroPct int
	}{
		{"repeatedBlock", func(rng *rand.Rand, ctrs int) []int64 {
			return []int64{int64(rng.Intn(ctrs))}
		}, 10},
		{"zeroBlocks", func(rng *rand.Rand, ctrs int) []int64 {
			// Eight neighbours: one level-0 node's children (or the
			// whole data region), often rewritten to zero.
			base := int64(rng.Intn(ctrs)) &^ (layout.TreeArity - 1)
			hot := make([]int64, 0, layout.TreeArity)
			for i := int64(0); i < layout.TreeArity && base+i < int64(ctrs); i++ {
				hot = append(hot, base+i)
			}
			return hot
		}, 50},
		{"otherSubtrees", func(rng *rand.Rand, ctrs int) []int64 {
			hot := make([]int64, 16)
			for i := range hot {
				hot[i] = int64(rng.Intn(ctrs))
			}
			return hot
		}, 10},
	}
	for _, l := range refLayouts {
		lay := refLayout(t, l.mem, l.levels)
		for _, tc := range cases {
			t.Run(l.name+"/"+tc.name, func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					d := newTreeDiff(lay, tc.hot(rng, int(lay.CtrBytes/int64(lay.BlockSize))), tc.zeroPct)
					for i := 0; i < 400; i++ {
						if err := d.step(rng); err != nil {
							t.Fatalf("seed %d step %d: %v", seed, i, err)
						}
					}
					if err := d.sweep(); err != nil {
						t.Fatalf("seed %d final sweep: %v", seed, err)
					}
				}
			})
		}
	}
}

// byteChooser reads a differential run's choices from fuzzer bytes,
// four per choice so every counter block of the 1 GiB layout is
// reachable; exhausted input reads as zeros.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	var v uint32
	if len(c.b) >= 4 {
		v = binary.LittleEndian.Uint32(c.b)
		c.b = c.b[4:]
	} else {
		c.b = nil
	}
	return int(v % uint32(n))
}

// FuzzTree lets the fuzzer steer the differential: the layout, a hot set
// of up to four counter blocks, the share of all-zero updates and every
// choice of the operation sequence.
func FuzzTree(f *testing.F) {
	lays := make([]*layout.Layout, len(refLayouts))
	for i, l := range refLayouts {
		lays[i] = refLayout(f, l.mem, l.levels)
	}
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{2, 0, 7}, 40))
	f.Add(bytes.Repeat([]byte{0x31, 0x9c, 0x05, 0xff, 0x40}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := &byteChooser{data}
		lay := lays[ch.Intn(len(lays))]
		ctrs := int(lay.CtrBytes / int64(lay.BlockSize))
		hot := make([]int64, 1+ch.Intn(4))
		for i := range hot {
			hot[i] = int64(ch.Intn(ctrs))
		}
		d := newTreeDiff(lay, hot, ch.Intn(101))
		for i := 0; len(ch.b) > 0; i++ {
			if err := d.step(ch); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if err := d.sweep(); err != nil {
			t.Fatalf("final sweep: %v", err)
		}
	})
}

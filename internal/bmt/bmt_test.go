package bmt

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/crypt"
	"repro/internal/layout"
	"repro/internal/nvm"
)

func setup(t *testing.T) (*layout.Layout, *crypt.Engine, *nvm.Device) {
	t.Helper()
	cfg := config.Default()
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 1 << 20
	lay, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay, crypt.NewEngine(1), nvm.New(lay.Total, cfg.BlockSize)
}

func ctrBlock(lay *layout.Layout, tag byte) []byte {
	b := make([]byte, lay.BlockSize)
	b[0] = tag
	return b
}

func TestEmptyTreeHasZeroRoot(t *testing.T) {
	lay, eng, _ := setup(t)
	if got := New(lay, eng).Root(); got != 0 {
		t.Fatalf("empty root = %#x, want 0", got)
	}
}

func TestUpdateChangesRoot(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	tr.Update(0, ctrBlock(lay, 1))
	r1 := tr.Root()
	if r1 == 0 {
		t.Fatal("root must be nonzero after a nonzero update")
	}
	tr.Update(0, ctrBlock(lay, 2))
	if tr.Root() == r1 {
		t.Fatal("changing a counter block must change the root")
	}
}

func TestRootIsOrderIndependentPerFinalState(t *testing.T) {
	lay, eng, _ := setup(t)
	a := New(lay, eng)
	a.Update(0, ctrBlock(lay, 1))
	a.Update(100, ctrBlock(lay, 2))

	b := New(lay, eng)
	b.Update(100, ctrBlock(lay, 2))
	b.Update(0, ctrBlock(lay, 1))
	// Extra overwritten noise must not matter.
	b.Update(0, ctrBlock(lay, 9))
	b.Update(0, ctrBlock(lay, 1))

	if a.Root() != b.Root() {
		t.Fatal("root must depend only on final counter state")
	}
}

func TestDistantCountersAffectRoot(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	tr.Update(0, ctrBlock(lay, 1))
	r1 := tr.Root()
	// An index in a completely different subtree.
	far := lay.CtrBytes/int64(lay.BlockSize) - 1
	tr.Update(far, ctrBlock(lay, 1))
	if tr.Root() == r1 {
		t.Fatal("updating a distant counter must change the root")
	}
}

func TestUpdateTouchesAllLevels(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	if got := tr.Update(0, ctrBlock(lay, 1)); got != lay.TreeLevels() {
		t.Fatalf("Update touched %d levels, want %d", got, lay.TreeLevels())
	}
}

func TestUpdatePanicsOutOfRange(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	for _, idx := range []int64{-1, lay.CtrBytes / int64(lay.BlockSize)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d must panic", idx)
				}
			}()
			tr.Update(idx, ctrBlock(lay, 1))
		}()
	}
}

func TestPathGeometry(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	steps := tr.Path(9) // counter block 9 -> level0 node 1, then up
	if len(steps) != lay.TreeLevels() {
		t.Fatalf("path length = %d, want %d", len(steps), lay.TreeLevels())
	}
	if steps[0].Level != 0 || steps[0].Index != 1 {
		t.Fatalf("first step = %+v, want level 0 node 1", steps[0])
	}
	last := steps[len(steps)-1]
	if last.Index != 0 {
		t.Fatalf("top step index = %d, want 0", last.Index)
	}
	for _, s := range steps {
		if lay.RegionOf(s.Addr) != layout.RegionTree {
			t.Fatalf("step %+v address outside tree region", s)
		}
	}
}

func TestNodeBytesReflectChildHashes(t *testing.T) {
	lay, eng, _ := setup(t)
	tr := New(lay, eng)
	empty := make([]byte, lay.BlockSize)
	for i := range empty {
		empty[i] = 0xff // stale scratch must be overwritten
	}
	tr.NodeBytesInto(empty, 0, 0)
	for _, b := range empty {
		if b != 0 {
			t.Fatal("empty node must serialize to zeros")
		}
	}
	tr.Update(3, ctrBlock(lay, 7))
	nb := make([]byte, lay.BlockSize)
	tr.NodeBytesInto(nb, 0, 0)
	zero := true
	for _, b := range nb[3*8 : 4*8] {
		if b != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("slot 3 of level-0 node 0 must hold the counter hash")
	}
}

func TestRebuildMatchesEagerRoot(t *testing.T) {
	lay, eng, dev := setup(t)
	tr := New(lay, eng)
	// Write counter blocks both to the device and the eager tree, as the
	// controller does when metadata is persisted in place.
	for i, tag := range []byte{5, 9, 13} {
		blk := ctrBlock(lay, tag)
		idx := int64(i * 77)
		dev.WriteBlock(lay.CtrBase+idx*int64(lay.BlockSize), blk)
		tr.Update(idx, blk)
	}
	root, leaves := Rebuild(lay, eng, dev)
	if root != tr.Root() {
		t.Fatal("rebuild from device must match the eager root")
	}
	if leaves != 3 {
		t.Fatalf("rebuild hashed %d counter blocks, want the 3 written", leaves)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	lay, eng, dev := setup(t)
	tr := New(lay, eng)
	blk := ctrBlock(lay, 5)
	dev.WriteBlock(lay.CtrBase, blk)
	tr.Update(0, blk)

	// Tamper with the persisted counter block.
	evil := ctrBlock(lay, 6)
	dev.WriteBlock(lay.CtrBase, evil)
	if root, _ := Rebuild(lay, eng, dev); root == tr.Root() {
		t.Fatal("verification must fail after tampering")
	}
}

func TestVerifyDetectsReplay(t *testing.T) {
	lay, eng, dev := setup(t)
	tr := New(lay, eng)
	old := ctrBlock(lay, 1)
	dev.WriteBlock(lay.CtrBase, old)
	tr.Update(0, old)

	// Counter advances; device gets the new value.
	newer := ctrBlock(lay, 2)
	dev.WriteBlock(lay.CtrBase, newer)
	tr.Update(0, newer)

	// Replay attack: adversary restores the old counter block.
	dev.WriteBlock(lay.CtrBase, old)
	if root, _ := Rebuild(lay, eng, dev); root == tr.Root() {
		t.Fatal("verification must detect replayed (stale) counters")
	}
}

// Property: for any set of (index, value) updates, the eager root equals
// the root rebuilt from a device holding the same final state.
func TestEagerEqualsRebuildProperty(t *testing.T) {
	lay, eng, dev0 := setup(t)
	_ = dev0
	f := func(updates []struct {
		Idx uint16
		Tag byte
	}) bool {
		dev := nvm.New(lay.Total, lay.BlockSize)
		tr := New(lay, eng)
		for _, u := range updates {
			idx := int64(u.Idx)
			blk := ctrBlock(lay, u.Tag)
			dev.WriteBlock(lay.CtrBase+idx*int64(lay.BlockSize), blk)
			tr.Update(idx, blk)
		}
		root, _ := Rebuild(lay, eng, dev)
		return root == tr.Root()
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNodeHashZeroAlloc pins the tree's hot path: hashing a node packs
// its child hashes into engine scratch and persisting one fills a
// caller buffer, so neither allocates. The hash keeps its input bytes:
// the node's child hashes as 64 little-endian bytes. In the steady
// state — every chunk on the touched paths allocated and the leaf
// buffers recycled — updates under two level-0 nodes, one node's
// write-back and the root allocate nothing either.
func TestNodeHashZeroAlloc(t *testing.T) {
	lay, eng, _ := setup(t)
	var n [layout.TreeArity]uint64
	var packed [layout.TreeArity * layout.HashBytes]byte
	for i := range n {
		n[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(packed[i*8:], n[i])
	}
	want := eng.TreeHash(lay.TreeNodeAddr(1, 3), packed[:])
	if got := hashNodeBlock(lay, eng, 1, 3, &n); got != want {
		t.Fatalf("node hash %#x, want %#x over the packed child hashes", got, want)
	}
	if a := testing.AllocsPerRun(1000, func() { hashNodeBlock(lay, eng, 1, 3, &n) }); a != 0 {
		t.Errorf("node hash: %.2f allocs, want 0", a)
	}
	tr := New(lay, eng)
	ctr, node := ctrBlock(lay, 0), make([]byte, lay.BlockSize)
	if a := testing.AllocsPerRun(1000, func() {
		ctr[0]++
		tr.Update(3, ctr)
		tr.NodeBytesInto(node, 0, 0)
	}); a != 0 {
		t.Errorf("update + node bytes: %.2f allocs, want 0", a)
	}
	far := lay.CtrBytes/int64(lay.BlockSize) - 1 // another chunk on every level but the top
	evict := func() {
		ctr[0]++
		tr.Update(3, ctr)
		tr.Update(far, ctr)
		tr.NodeBytesInto(node, 0, 0)
		tr.Root()
	}
	evict() // first touch of far's chunks
	if a := testing.AllocsPerRun(1000, evict); a != 0 {
		t.Errorf("two updates + node bytes + root: %.2f allocs, want 0", a)
	}
	// Releasing buffered blocks never allocates, even the first time
	// more of them are released at once than ever before: the first
	// root of each fresh tree releases 100. The process-wide malloc
	// count brackets all of those roots at once, so it fails when they
	// average at least one allocation each — the rounding AllocsPerRun
	// applies — and not on one stray runtime allocation.
	fresh := make([]*Tree, 100)
	for j := range fresh {
		fresh[j] = New(lay, eng)
		for i := int64(0); i < 100; i++ {
			fresh[j].Update(i*layout.TreeArity, ctr)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range fresh {
		f.Root()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= uint64(len(fresh)) {
		t.Errorf("%d fresh roots releasing 100 buffered blocks each: %d allocs, want under %d", len(fresh), n, len(fresh))
	}
}

// TestTreeMemoryFollowsTouchedSet pins the allocation on first touch: a
// tree over a default 32 GiB module, whose level 0 alone has 786,432
// nodes, allocates only its chunk directories up front, and an update
// and a root read add one chunk per level.
func TestTreeMemoryFollowsTouchedSet(t *testing.T) {
	lay, err := layout.New(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(lay, crypt.NewEngine(1))
	tr.Update(0, ctrBlock(lay, 1))
	tr.Root()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("%d levels, %d level-0 nodes: allocated %d bytes, want under 1 MiB", lay.TreeLevels(), lay.TreeNodes[0], got)
	}
}

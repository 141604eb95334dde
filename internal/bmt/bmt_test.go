package bmt

import (
	"encoding/binary"
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
	if !Verify(lay, eng, dev, tr.Root()) {
		t.Fatal("rebuild from device must match the eager root")
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
	if Verify(lay, eng, dev, tr.Root()) {
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
	if Verify(lay, eng, dev, tr.Root()) {
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
		return Rebuild(lay, eng, dev) == tr.Root()
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNodeHashZeroAlloc pins the tree's hot path: hashing a node packs
// its child hashes into engine scratch and persisting one fills a
// caller buffer, so neither allocates. The hash keeps its input bytes:
// the node's child hashes as 64 little-endian bytes.
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
}

package layout

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func mustNew(t *testing.T, cfg config.Config) *Layout {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return l
}

func TestRegionsAreContiguousAndOrdered(t *testing.T) {
	for _, bs := range []int{64, 128, 256} {
		l := mustNew(t, config.Default().WithBlockSize(bs))
		if l.DataBase != 0 {
			t.Errorf("bs=%d: data base = %#x, want 0", bs, l.DataBase)
		}
		if l.CtrBase != l.DataBase+l.DataBytes {
			t.Errorf("bs=%d: counter region not adjacent to data", bs)
		}
		if l.MACBase != l.CtrBase+l.CtrBytes {
			t.Errorf("bs=%d: MAC region not adjacent to counters", bs)
		}
		if l.TreeBase[0] != l.MACBase+l.MACBytes {
			t.Errorf("bs=%d: tree region not adjacent to MACs", bs)
		}
		if l.CtlBase+l.CtlBytes != l.Total {
			t.Errorf("bs=%d: control region not last", bs)
		}
		if l.Total > config.Default().MemBytes {
			t.Errorf("bs=%d: layout exceeds module capacity", bs)
		}
	}
}

func TestMetadataStorageOverheads(t *testing.T) {
	// Section I: counters ~1.56% of data, MACs 12.5% of data.
	l := mustNew(t, config.Default().WithBlockSize(64))
	ctrOverhead := float64(l.CtrBytes) / float64(l.DataBytes)
	macOverhead := float64(l.MACBytes) / float64(l.DataBytes)
	if ctrOverhead < 0.01 || ctrOverhead > 0.02 {
		t.Errorf("counter overhead = %.4f, want ~0.0156", ctrOverhead)
	}
	if macOverhead < 0.12 || macOverhead > 0.13 {
		t.Errorf("MAC overhead = %.4f, want 0.125", macOverhead)
	}
}

func TestCtrMapping(t *testing.T) {
	l := mustNew(t, config.Default()) // 128B blocks, 4KB pages -> 32 blocks/page
	if got := l.CtrBlockAddr(0); got != l.CtrBase {
		t.Errorf("CtrBlockAddr(0) = %#x, want %#x", got, l.CtrBase)
	}
	// Last block of page 0 shares the counter block with block 0.
	if l.CtrBlockAddr(4096-128) != l.CtrBlockAddr(0) {
		t.Error("blocks of one page must share a counter block")
	}
	if l.CtrBlockAddr(4096) == l.CtrBlockAddr(0) {
		t.Error("different pages must use different counter blocks")
	}
	if got := l.CtrSlot(0); got != 0 {
		t.Errorf("CtrSlot(0) = %d, want 0", got)
	}
	if got := l.CtrSlot(4096 - 128); got != 31 {
		t.Errorf("CtrSlot(last of page) = %d, want 31", got)
	}
	if got := l.CtrSlot(4096 + 128); got != 1 {
		t.Errorf("CtrSlot(second of page 1) = %d, want 1", got)
	}
}

func TestMACMapping(t *testing.T) {
	l := mustNew(t, config.Default()) // 128B blocks -> 8 MACs of 16B per MAC block
	if l.MACSize() != 16 {
		t.Fatalf("MACSize = %d, want 16", l.MACSize())
	}
	if got := l.MACBlockAddr(0); got != l.MACBase {
		t.Errorf("MACBlockAddr(0) = %#x, want %#x", got, l.MACBase)
	}
	// Blocks 0..7 share a MAC block; block 8 starts the next.
	if l.MACBlockAddr(7*128) != l.MACBase {
		t.Error("blocks 0..7 must share MAC block 0")
	}
	if l.MACBlockAddr(8*128) != l.MACBase+128 {
		t.Error("block 8 must map to MAC block 1")
	}
	for i := int64(0); i < 16; i++ {
		if got, want := l.MACSlot(i*128), int(i%8); got != want {
			t.Errorf("MACSlot(block %d) = %d, want %d", i, got, want)
		}
	}
}

func TestTreeGeometry(t *testing.T) {
	l := mustNew(t, config.Default())
	pages := l.CtrBytes / int64(l.BlockSize)
	if l.TreeNodes[0] != (pages+TreeArity-1)/TreeArity {
		t.Errorf("level-0 nodes = %d, want ceil(%d/8)", l.TreeNodes[0], pages)
	}
	// Each level shrinks by 8x and the last level has one node.
	for i := 1; i < l.TreeLevels(); i++ {
		want := (l.TreeNodes[i-1] + TreeArity - 1) / TreeArity
		if l.TreeNodes[i] != want {
			t.Errorf("level %d nodes = %d, want %d", i, l.TreeNodes[i], want)
		}
	}
	if l.TreeNodes[l.TreeLevels()-1] != 1 {
		t.Errorf("top level has %d nodes, want 1", l.TreeNodes[l.TreeLevels()-1])
	}
}

func TestTreeParent(t *testing.T) {
	for _, tc := range []struct {
		child  int64
		parent int64
		slot   int
	}{{0, 0, 0}, {7, 0, 7}, {8, 1, 0}, {65, 8, 1}} {
		p, s := TreeParent(tc.child)
		if p != tc.parent || s != tc.slot {
			t.Errorf("TreeParent(%d) = (%d,%d), want (%d,%d)",
				tc.child, p, s, tc.parent, tc.slot)
		}
	}
}

func TestRegionOf(t *testing.T) {
	l := mustNew(t, config.Default())
	cases := map[int64]Region{
		0:             RegionData,
		l.CtrBase:     RegionCounter,
		l.MACBase:     RegionMAC,
		l.TreeBase[0]: RegionTree,
		l.PUBBase:     RegionPUB,
		l.CtlBase:     RegionControl,
		l.Total:       RegionUnmapped,
		-1:            RegionUnmapped,
	}
	for addr, want := range cases {
		if got := l.RegionOf(addr); got != want {
			t.Errorf("RegionOf(%#x) = %v, want %v", addr, got, want)
		}
	}
}

func TestPUBRingWraps(t *testing.T) {
	l := mustNew(t, config.Default())
	n := l.PUBBlocks()
	if n != (64<<20)/128 {
		t.Fatalf("PUBBlocks = %d, want %d", n, (64<<20)/128)
	}
	if l.PUBBlockAddr(0) != l.PUBBase {
		t.Error("first PUB block must sit at PUBBase")
	}
	if l.PUBBlockAddr(n) != l.PUBBase {
		t.Error("ring index n must wrap to 0")
	}
	if l.PUBBlockAddr(n+3) != l.PUBBlockAddr(3) {
		t.Error("ring wrap broken")
	}
}

func TestBadAddressesPanic(t *testing.T) {
	l := mustNew(t, config.Default())
	cases := []func(){
		func() { l.CtrBlockAddr(l.DataBytes) }, // not a data address
		func() { l.CtrBlockAddr(1) },           // unaligned
		func() { l.MACSlot(-128) },             // negative
		func() { l.CtrIndex(0) },               // not a counter address
		func() { l.TreeNodeAddr(99, 0) },       // bad level
		func() { l.TreeNodeAddr(0, -1) },       // bad index
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRejectsOversizedLayout(t *testing.T) {
	cfg := config.Default()
	cfg.MemBytes = 1 << 20 // 1MB cannot fit a 64MB PUB
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for layout exceeding module capacity")
	}
}

// Property: every block-aligned data address maps to counter/MAC
// addresses inside their regions, with slots in range.
func TestMappingRangesProperty(t *testing.T) {
	l := mustNew(t, config.Default())
	f := func(raw uint32) bool {
		addr := int64(raw) * 128 % l.DataBytes
		ca := l.CtrBlockAddr(addr)
		ma := l.MACBlockAddr(addr)
		if l.RegionOf(ca) != RegionCounter || l.RegionOf(ma) != RegionMAC {
			return false
		}
		cs, ms := l.CtrSlot(addr), l.MACSlot(addr)
		return cs >= 0 && cs < 32 && ms >= 0 && ms < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct data blocks sharing a counter block always lie in
// the same page, and their slots differ.
func TestCtrSlotInjectivityProperty(t *testing.T) {
	l := mustNew(t, config.Default())
	f := func(a, b uint16) bool {
		aa := int64(a) * 128
		bb := int64(b) * 128
		if aa == bb {
			return true
		}
		sameBlock := l.CtrBlockAddr(aa) == l.CtrBlockAddr(bb)
		samePage := aa/4096 == bb/4096
		if sameBlock != samePage {
			return false
		}
		if sameBlock && l.CtrSlot(aa) == l.CtrSlot(bb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionStringNames(t *testing.T) {
	want := map[Region]string{
		RegionData: "data", RegionCounter: "counter", RegionMAC: "mac",
		RegionTree: "tree", RegionPUB: "pub", RegionControl: "control",
		RegionUnmapped: "unmapped",
	}
	for r, w := range want {
		if r.String() != w {
			t.Errorf("Region(%d) = %q, want %q", int(r), r.String(), w)
		}
	}
}

func TestDegenerateTinyDataRegion(t *testing.T) {
	// A module so small the tree degenerates to a single level.
	cfg := config.Default()
	cfg.MemBytes = 64 << 10
	cfg.PUBBytes = 4 * int64(cfg.BlockSize)
	cfg.PCBEntries = 2
	cfg.CtrCacheBytes = 512
	cfg.MACCacheBytes = 512
	cfg.MTCacheBytes = 512
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.TreeLevels() < 1 {
		t.Fatal("tree must have at least one level")
	}
	if l.Total > cfg.MemBytes {
		t.Fatal("layout exceeds module")
	}
}

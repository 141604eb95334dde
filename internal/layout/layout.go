// Package layout computes the NVM address-space map: where encrypted
// data, counter blocks, MAC blocks, Merkle-tree levels, the partial
// updates buffer (PUB) and the ADR-persisted control block live, and how
// a data-block address translates to its metadata addresses and slots.
//
// The map is contiguous and deterministic:
//
//	| Data | Counters | MACs | Tree L0..Ln | PUB | Control |
//
// Counter organization follows the split-counter scheme (Section II-A):
// one counter block per data page holds the page's 64-bit major counter
// and one 7-bit minor counter per data block. MAC blocks hold 8
// first-level MACs each (8-to-1 MAC: blockSize/8 bytes per MAC). The
// 8-ary Bonsai Merkle Tree is built over counter blocks; level 0 is the
// lowest tree level and each node occupies one cache block (its first 64
// bytes hold the 8 child hashes).
package layout

import (
	"fmt"

	"repro/internal/config"
)

// Region identifies which part of the address space an address falls in.
type Region int

const (
	// RegionData holds the encrypted application data.
	RegionData Region = iota
	// RegionCounter holds split-counter blocks (one per data page).
	RegionCounter
	// RegionMAC holds first-level MAC blocks (8 MACs each).
	RegionMAC
	// RegionTree holds the in-memory Bonsai Merkle Tree levels.
	RegionTree
	// RegionPUB holds the partial updates buffer ring.
	RegionPUB
	// RegionControl holds the ADR-persisted control blocks (PUB bounds,
	// tree root).
	RegionControl
	// RegionUnmapped is returned for addresses outside every region.
	RegionUnmapped
)

// String names the region for diagnostics.
func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionCounter:
		return "counter"
	case RegionMAC:
		return "mac"
	case RegionTree:
		return "tree"
	case RegionPUB:
		return "pub"
	case RegionControl:
		return "control"
	default:
		return "unmapped"
	}
}

// Layout is the computed address map for one configuration.
type Layout struct {
	BlockSize int
	PageBytes int

	DataBase  int64
	DataBytes int64

	CtrBase  int64
	CtrBytes int64

	MACBase  int64
	MACBytes int64

	// TreeBase[i] is the base address of tree level i; level 0 is the
	// leaf level (hashes of counter blocks). TreeNodes[i] is the node
	// count of that level. The root (a single hash above the last
	// level) lives on-chip, not in memory.
	TreeBase  []int64
	TreeNodes []int64

	PUBBase  int64
	PUBBytes int64

	CtlBase  int64
	CtlBytes int64

	// Total is the first unmapped address.
	Total int64
}

// TreeArity is the fan-out of the Bonsai Merkle Tree.
const TreeArity = 8

// HashBytes is the width of one tree hash.
const HashBytes = 8

// New computes the layout for the configuration. The data region is
// sized at 3/4 of the module; metadata, PUB and control must fit in the
// remainder or an error is returned.
func New(cfg config.Config) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bs := int64(cfg.BlockSize)
	l := &Layout{BlockSize: cfg.BlockSize, PageBytes: cfg.PageBytes}

	l.DataBase = 0
	l.DataBytes = cfg.MemBytes / 4 * 3
	l.DataBytes -= l.DataBytes % int64(cfg.PageBytes)

	pages := l.DataBytes / int64(cfg.PageBytes)
	l.CtrBase = l.DataBase + l.DataBytes
	l.CtrBytes = pages * bs // one counter block per page

	dataBlocks := l.DataBytes / bs
	macsPerBlock := int64(cfg.MACsPerBlock())
	macBlocks := (dataBlocks + macsPerBlock - 1) / macsPerBlock
	l.MACBase = l.CtrBase + l.CtrBytes
	l.MACBytes = macBlocks * bs

	// Tree levels over counter blocks until a single node remains.
	next := l.MACBase + l.MACBytes
	n := pages // number of entities hashed by level 0
	for n > 1 {
		nodes := (n + TreeArity - 1) / TreeArity
		l.TreeBase = append(l.TreeBase, next)
		l.TreeNodes = append(l.TreeNodes, nodes)
		next += nodes * bs
		n = nodes
	}
	if len(l.TreeBase) == 0 {
		// Degenerate single-page data region: one level with one node.
		l.TreeBase = append(l.TreeBase, next)
		l.TreeNodes = append(l.TreeNodes, 1)
		next += bs
	}

	l.PUBBase = next
	l.PUBBytes = cfg.PUBBytes - cfg.PUBBytes%bs
	next += l.PUBBytes

	l.CtlBase = next
	l.CtlBytes = 4 * bs // PUB bounds, root, and engine state fit easily
	next += l.CtlBytes

	l.Total = next
	if l.Total > cfg.MemBytes {
		return nil, fmt.Errorf("layout: regions need %d bytes, module has %d", l.Total, cfg.MemBytes)
	}
	return l, nil
}

// blocksPerPage returns data blocks covered by one counter block.
func (l *Layout) blocksPerPage() int64 { return int64(l.PageBytes) / int64(l.BlockSize) }

// checkData panics unless addr is a block-aligned data address.
func (l *Layout) checkData(addr int64) {
	if addr < l.DataBase || addr >= l.DataBase+l.DataBytes || addr%int64(l.BlockSize) != 0 {
		panic(fmt.Sprintf("layout: %#x is not a block-aligned data address", addr))
	}
}

// CtrBlockAddr returns the address of the counter block covering the
// given data-block address.
func (l *Layout) CtrBlockAddr(dataAddr int64) int64 {
	l.checkData(dataAddr)
	page := (dataAddr - l.DataBase) / int64(l.PageBytes)
	return l.CtrBase + page*int64(l.BlockSize)
}

// CtrSlot returns the minor-counter slot index of the data block within
// its counter block.
func (l *Layout) CtrSlot(dataAddr int64) int {
	l.checkData(dataAddr)
	return int((dataAddr - l.DataBase) % int64(l.PageBytes) / int64(l.BlockSize))
}

// MACBlockAddr returns the address of the MAC block holding the data
// block's first-level MAC.
func (l *Layout) MACBlockAddr(dataAddr int64) int64 {
	l.checkData(dataAddr)
	blk := (dataAddr - l.DataBase) / int64(l.BlockSize)
	macsPerBlock := int64(l.BlockSize) / (int64(l.BlockSize) / 8) // always 8
	return l.MACBase + blk/macsPerBlock*int64(l.BlockSize)
}

// MACSlot returns the MAC slot index of the data block within its MAC
// block (0..7).
func (l *Layout) MACSlot(dataAddr int64) int {
	l.checkData(dataAddr)
	blk := (dataAddr - l.DataBase) / int64(l.BlockSize)
	return int(blk % 8)
}

// MACSize returns the first-level MAC width in bytes.
func (l *Layout) MACSize() int { return l.BlockSize / 8 }

// TreeLevels returns the number of in-memory tree levels.
func (l *Layout) TreeLevels() int { return len(l.TreeBase) }

// TreeNodeAddr returns the address of node idx at the given level.
func (l *Layout) TreeNodeAddr(level int, idx int64) int64 {
	if level < 0 || level >= len(l.TreeBase) || idx < 0 || idx >= l.TreeNodes[level] {
		panic(fmt.Sprintf("layout: tree node (%d,%d) out of range", level, idx))
	}
	return l.TreeBase[level] + idx*int64(l.BlockSize)
}

// TreeParent returns the (level, index, slot) of the parent hash covering
// a counter block (level == 0 input uses ctrIdx) or a tree node. For a
// counter block with index i, the level-0 parent node is i/8 and the
// hash slot is i%8; for a node (lv,i), the parent is (lv+1, i/8, i%8).
func TreeParent(childIdx int64) (parentIdx int64, slot int) {
	return childIdx / TreeArity, int(childIdx % TreeArity)
}

// CtrIndex returns the counter-block index (page number) of a counter
// block address.
func (l *Layout) CtrIndex(ctrAddr int64) int64 {
	if ctrAddr < l.CtrBase || ctrAddr >= l.CtrBase+l.CtrBytes || ctrAddr%int64(l.BlockSize) != 0 {
		panic(fmt.Sprintf("layout: %#x is not a counter-block address", ctrAddr))
	}
	return (ctrAddr - l.CtrBase) / int64(l.BlockSize)
}

// RegionOf classifies an address.
func (l *Layout) RegionOf(addr int64) Region {
	switch {
	case addr < 0:
		return RegionUnmapped
	case addr < l.CtrBase:
		return RegionData
	case addr < l.MACBase:
		return RegionCounter
	case addr < l.TreeBase[0]:
		return RegionMAC
	case addr < l.PUBBase:
		return RegionTree
	case addr < l.CtlBase:
		return RegionPUB
	case addr < l.Total:
		return RegionControl
	default:
		return RegionUnmapped
	}
}

// PUBBlocks returns the PUB ring capacity in blocks.
func (l *Layout) PUBBlocks() int64 { return l.PUBBytes / int64(l.BlockSize) }

// PUBBlockAddr returns the address of the i-th block of the PUB ring.
func (l *Layout) PUBBlockAddr(i int64) int64 {
	n := l.PUBBlocks()
	if n == 0 {
		panic("layout: no PUB region configured")
	}
	i %= n
	if i < 0 {
		i += n
	}
	return l.PUBBase + i*int64(l.BlockSize)
}

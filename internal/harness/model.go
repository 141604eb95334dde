package harness

import "math/bits"

// modelPageBlocks is the number of blocks per plaintext-model page: a
// multiple of 64, so a page's persisted bitmap is whole words.
const modelPageBlocks = 512

// modelPage holds one page of the plaintext model: each block's store
// version and a bitmap of the blocks persisted at least once.
type modelPage struct {
	versions  [modelPageBlocks]uint64
	persisted [modelPageBlocks / 64]uint64
}

// model is the runner's plaintext model of the data region. Pages are
// allocated on first touch and found through a dense page-pointer table,
// as in nvm, so memory follows the touched set. Blocks of untouched
// pages are at version 0 and never persisted.
type model struct {
	base  int64 // data region base
	shift uint  // log2 of the block size
	pages []*modelPage
}

func newModel(base, dataBytes, blockSize int64) model {
	blocks := dataBytes / blockSize
	return model{
		base:  base,
		shift: uint(bits.TrailingZeros64(uint64(blockSize))),
		pages: make([]*modelPage, (blocks+modelPageBlocks-1)/modelPageBlocks),
	}
}

// locate returns the page index and in-page slot of a block address.
func (m *model) locate(addr int64) (int, int) {
	b := (addr - m.base) >> m.shift
	return int(b / modelPageBlocks), int(b % modelPageBlocks)
}

// touch returns the page and slot of a block, allocating the page on
// first touch.
func (m *model) touch(addr int64) (*modelPage, int) {
	pi, slot := m.locate(addr)
	p := m.pages[pi]
	if p == nil {
		p = new(modelPage)
		m.pages[pi] = p
	}
	return p, slot
}

// version returns a block's store count.
func (m *model) version(addr int64) uint64 {
	pi, slot := m.locate(addr)
	if p := m.pages[pi]; p != nil {
		return p.versions[slot]
	}
	return 0
}

// bump records one store to a block.
func (m *model) bump(addr int64) {
	p, slot := m.touch(addr)
	p.versions[slot]++
}

// persisted reports whether a block has ever left the chip.
func (m *model) persisted(addr int64) bool {
	pi, slot := m.locate(addr)
	p := m.pages[pi]
	return p != nil && p.persisted[slot/64]&(1<<(slot%64)) != 0
}

// markPersisted records that a block left the chip.
func (m *model) markPersisted(addr int64) {
	p, slot := m.touch(addr)
	p.persisted[slot/64] |= 1 << (slot % 64)
}

// eachPersisted calls fn on every persisted block in ascending address
// order, stopping at the first error. fn may persist and read blocks but
// must not change which blocks are persisted.
func (m *model) eachPersisted(fn func(addr int64) error) error {
	for pi, p := range m.pages {
		if p == nil {
			continue
		}
		for w, word := range p.persisted {
			for ; word != 0; word &= word - 1 {
				slot := w*64 + bits.TrailingZeros64(word)
				b := int64(pi)*modelPageBlocks + int64(slot)
				if err := fn(m.base + b<<m.shift); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

package pub

import "fmt"

// PCB is the persistent combining buffer: WPQ entries reserved to
// coalesce partial updates into full blocks before they are written to
// the PUB (Section IV-C, the augmented PCB-before-WPQ arrangement the
// paper adopts: "we check the addresses of partial updates in the PCB
// upon each partial update such that they are merged").
//
// Blocks linger in the PCB after filling: every unposted entry remains
// coalescible, so the merge window spans the whole reserved-slot set,
// not just the block currently being assembled — this is what produces
// the paper's high Table III merge rates. Blocks are handed to the NVM
// channel when the unposted population crosses a watermark (half the
// slots), keeping posting off the critical path; a slot frees when its
// posted write retires. Because the PCB lives in the ADR domain, all
// unposted entries survive a crash: DrainAll returns them for the
// crash-time flush (duplicated to full blocks per Section IV-A).
type PCB struct {
	slots     int
	perBlock  int
	watermark int

	// unposted is a FIFO of coalescible blocks; the last may be
	// partially filled (the active accumulator).
	unposted [][]Entry
	pending  int // posted blocks whose PUB write has not retired
	// free recycles entry slices whose packed block has been posted, so
	// steady-state posting allocates nothing.
	free [][]Entry
}

// NewPCB builds a PCB with the given number of reserved WPQ slots and
// entries-per-block geometry.
func NewPCB(slots, entriesPerBlock int) *PCB {
	if slots < 2 {
		panic(fmt.Sprintf("pub: PCB needs >=2 slots, got %d", slots))
	}
	if entriesPerBlock < 1 {
		panic("pub: PCB needs a positive entries-per-block")
	}
	return &PCB{slots: slots, perBlock: entriesPerBlock, watermark: slots / 2}
}

// Occupancy returns slots in use: unposted blocks plus in-flight posts.
func (p *PCB) Occupancy() int { return len(p.unposted) + p.pending }

// Pending returns the number of posted blocks not yet retired.
func (p *PCB) Pending() int { return p.pending }

// Len returns the number of unposted entries (across all blocks).
func (p *PCB) Len() int {
	n := 0
	for _, b := range p.unposted {
		n += len(b)
	}
	return n
}

// TryMerge coalesces the update into an existing unposted entry for the
// same data block, if one exists. Values are replaced by the newer ones
// and the status bits are ANDed — a cleared bit means "this update made
// the metadata block dirty and is responsible for persisting it on PUB
// eviction" (WTSC), and that responsibility must survive merging or the
// update chain could be lost on a crash.
func (p *PCB) TryMerge(e Entry) bool {
	for _, blk := range p.unposted {
		for i := range blk {
			if blk[i].BlockIndex == e.BlockIndex {
				blk[i].MAC2 = e.MAC2
				blk[i].Minor = e.Minor
				blk[i].Status &= e.Status
				return true
			}
		}
	}
	return false
}

// activeHasRoom reports whether an entry can be appended without a new
// block.
func (p *PCB) activeHasRoom() bool {
	n := len(p.unposted)
	return n > 0 && len(p.unposted[n-1]) < p.perBlock
}

// Full reports whether Append would need a new block but every slot is
// occupied. The caller must retire a pending post (or pop and post an
// unposted block, then retire) before appending.
func (p *PCB) Full() bool {
	return !p.activeHasRoom() && p.Occupancy() >= p.slots
}

// Append adds a new entry, opening a new block if needed. It panics when
// Full — callers check first.
func (p *PCB) Append(e Entry) {
	if !p.activeHasRoom() {
		if p.Occupancy() >= p.slots {
			panic("pub: Append on full PCB")
		}
		var blk []Entry
		if n := len(p.free); n > 0 {
			blk = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			blk = make([]Entry, 0, p.perBlock)
		}
		p.unposted = append(p.unposted, blk)
	}
	n := len(p.unposted)
	p.unposted[n-1] = append(p.unposted[n-1], e)
}

// OverWatermark reports whether enough full blocks have accumulated that
// the oldest should be posted to the PUB.
func (p *PCB) OverWatermark() bool {
	full := len(p.unposted)
	if p.activeHasRoom() {
		full-- // the active block is not postable yet
	}
	return full > 0 && len(p.unposted) > p.watermark
}

// PopPostable removes and returns the oldest full unposted block, or nil
// if none exists (only a partial active block remains). The caller posts
// it to the channel and calls AddPending.
func (p *PCB) PopPostable() []Entry {
	if len(p.unposted) == 0 || len(p.unposted[0]) < p.perBlock {
		return nil
	}
	blk := p.unposted[0]
	copy(p.unposted, p.unposted[1:])
	p.unposted = p.unposted[:len(p.unposted)-1]
	return blk
}

// Recycle returns a popped block's entry slice to the freelist once its
// contents have been packed and posted. The caller must not use the
// slice afterwards.
func (p *PCB) Recycle(blk []Entry) {
	p.free = append(p.free, blk[:0])
}

// AddPending marks one slot as occupied by an in-flight PUB write.
func (p *PCB) AddPending() {
	if p.Occupancy() >= p.slots {
		panic("pub: AddPending with no free slot")
	}
	p.pending++
}

// CompletePending releases one pending slot (the PUB write retired).
func (p *PCB) CompletePending() {
	if p.pending == 0 {
		panic("pub: CompletePending with nothing pending")
	}
	p.pending--
}

// DrainAll returns and clears every unposted entry (crash handling: the
// ADR flush must persist them even though blocks may not be full).
func (p *PCB) DrainAll() []Entry {
	var out []Entry
	for _, blk := range p.unposted {
		out = append(out, blk...)
	}
	p.unposted = nil
	return out
}

// UnpostedEntries returns a copy of every unposted entry (consistency
// verification).
func (p *PCB) UnpostedEntries() []Entry {
	var out []Entry
	for _, blk := range p.unposted {
		out = append(out, blk...)
	}
	return out
}

package core

import (
	"repro/internal/cache"
	"repro/internal/layout"
	"repro/internal/pub"
	"repro/internal/stats"
)

// PCB-after-WPQ (Section IV-C, the arrangement the paper compares its
// adopted augmented-PCB-before-WPQ against). Metadata-block writes enter
// the WPQ exactly like the baseline's strict persists, with the partial
// updates riding along inside the ADR-backed entry. While the entry is
// coalescible, repeated updates to the same metadata block merge for
// free (the WPQ "bitmask" merging of the paper). When the entry reaches
// the head of the queue, afterIssue decides its fate: a block whose
// update count is small diverts its partials into the PCB and suppresses
// the full-block write; a heavily-updated block persists in full.

// afterForwardThreshold is the update count at or below which a block's
// partials go to the PCB instead of a full-block persist.
const afterForwardThreshold = 3

// attachAfter records a partial update against its metadata block's
// pending WPQ entry, replacing any older update for the same data block
// (status bits AND together, like the PCB merge).
func (c *Controller) attachAfter(blockAddr int64, e pub.Entry) {
	lst := c.afterEntries[blockAddr]
	for i := range lst {
		if lst[i].BlockIndex == e.BlockIndex {
			lst[i].MAC2 = e.MAC2
			lst[i].Minor = e.Minor
			lst[i].Status &= e.Status
			c.st.PCBMerged++
			return
		}
	}
	c.afterEntries[blockAddr] = append(lst, e)
}

// afterIssue is the WPQ OnIssue hook. It returns true to suppress the
// write (the metadata is covered some other way), false to let the full
// block go to memory.
func (c *Controller) afterIssue(addr int64) bool {
	var line *cache.Line
	var cat stats.WriteCategory
	switch c.lay.RegionOf(addr) {
	case layout.RegionCounter:
		line = c.ctrCache.Probe(addr)
		cat = stats.WriteCounter
	case layout.RegionMAC:
		line = c.macCache.Probe(addr)
		cat = stats.WriteMAC
	default:
		return false // data (and anything else) writes proceed untouched
	}

	entries := c.afterEntries[addr]
	delete(c.afterEntries, addr)

	if line == nil || !line.Dirty {
		// The block left the cache (natural eviction persisted it) or
		// was persisted by a PUB eviction: nothing left to write.
		return true
	}
	if n := len(entries); !c.inADRFlush && n > 0 && n <= afterForwardThreshold {
		// Lightly updated: divert the partials to the PCB. The block
		// stays dirty in cache; the PUB eviction machinery now carries
		// the crash-consistency obligation.
		for _, e := range entries {
			c.pcbInsert(c.nowCycle, e)
		}
		return true
	}

	// Heavily updated (or untracked): persist the full block in place.
	c.dev.WriteBlock(addr, line.Data)
	line.Dirty = false
	line.Mask = 0
	c.st.AddWrite(cat)
	return false
}

// persistThothAfter implements the Thoth persistence path in the
// PCB-after-WPQ arrangement: the counter and MAC block writes enter the
// WPQ (coalescing there), carrying the bundled partial update.
func (c *Controller) persistThothAfter(t int64, addr int64, e pub.Entry) int64 {
	ca := c.lay.CtrBlockAddr(addr)
	ma := c.lay.MACBlockAddr(addr)
	c.attachAfter(ca, e)
	c.attachAfter(ma, e)
	c.st.PCBInserted++
	r1 := c.q.Insert(t, ca)
	r2 := c.q.Insert(r1.When, ma)
	return max64(r1.When, r2.When)
}

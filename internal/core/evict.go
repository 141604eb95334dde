package core

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/ctr"
	"repro/internal/macs"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/sim"
	"repro/internal/stats"
)

// evictOutcomeTag maps the stats classification onto the static event
// label (stats.EvictOutcome.String() values, precomputed so the emit
// path never calls String()).
var evictOutcomeTag = [...]string{
	stats.EvictWrittenBack:    "written-back",
	stats.EvictAlreadyEvicted: "already-evicted",
	stats.EvictCleanCopy:      "clean-copy",
	stats.EvictStaleCopy:      "stale-copy",
}

// evictPUBBlock processes the oldest packed block of the PUB ring
// (Section IV-B): the block is read back, and for every partial update
// the controller decides whether the corresponding counter/MAC block
// still needs a full-block persist to remain crash consistent.
//
// Each entry yields two decisions — one for its counter partial and one
// for its MAC partial. The *classification* recorded in the statistics
// is always the precise one (Figure 3's four outcomes), independent of
// policy; the *action* follows the configured policy:
//
//   - WTBC persists iff the metadata block is cached, dirty, the
//     entry's slot is dirty in the fine-grain bitmask, and the entry's
//     value matches the cached value (i.e. the entry is the newest
//     update to that slot; a mismatch means a younger update exists and
//     will take responsibility).
//   - WTSC persists iff the entry's status bit says this update
//     transitioned the block from clean to dirty AND the block is still
//     cached dirty. This is conservative: it can persist blocks whose
//     relevant slot was already captured, but never misses one
//     (Section IV-B).
func (c *Controller) evictPUBBlock(t int64) {
	pubAddr := c.ring.PopInto(c.pubBuf)
	c.mem.Post(pubAddr, sim.Item{Ready: t, Dur: c.cfg.ReadLatencyCycles()})
	c.st.NVMReads++
	c.st.PUBEvictions++

	c.entryBuf = pub.UnpackBlockAppend(c.entryBuf[:0], c.cfg.BlockSize, c.pubBuf)
	for _, e := range c.entryBuf {
		c.st.PUBEntryEvictions++
		c.evictCtrPartial(t, pubAddr, e)
		c.evictMACPartial(t, pubAddr, e)
	}
}

// evictCtrPartial handles the counter half of one evicted entry. t and
// pubAddr stamp the emitted event: pubAddr is the ring address the
// entry was packed at, linking the eviction to its KindPCBFlush.
func (c *Controller) evictCtrPartial(t, pubAddr int64, e pub.Entry) {
	dataAddr := int64(e.BlockIndex) * int64(c.cfg.BlockSize)
	ca := c.lay.CtrBlockAddr(dataAddr)
	slot := c.lay.CtrSlot(dataAddr)
	line := c.ctrCache.Probe(ca)

	// Precise classification (Figure 3).
	var outcome stats.EvictOutcome
	current := false
	switch {
	case line == nil:
		outcome = stats.EvictAlreadyEvicted
	case !line.Dirty:
		outcome = stats.EvictCleanCopy
	case ctr.Minor(line.Data, slot) != e.Minor:
		outcome = stats.EvictStaleCopy
	case line.Mask&(1<<uint(slot)) != 0:
		outcome = stats.EvictWrittenBack
		current = true
	default:
		// Value matches but the slot is clean: a prior persist already
		// captured it and the block was re-dirtied by another slot.
		outcome = stats.EvictCleanCopy
	}
	c.st.AddEvict(outcome)
	c.emit(obs.KindPUBEvict, t, ca, pubAddr, "ctr", evictOutcomeTag[outcome])

	if c.writeBackOnEvict(line, current, e.Status&pub.StatusCtrWasDirty != 0) {
		c.persistCtrLine(ca, line.Data)
		line.Dirty = false
		line.Mask = 0
	}
}

// evictMACPartial handles the MAC half of one evicted entry. The evicted
// second-level MAC is compared against the second-level MAC computed
// over the corresponding first-level MAC currently in the cache
// (Section IV-B: "evicted partial update's MAC needs to be compared with
// a second level 8B MAC computed over the corresponding MAC in the
// secure metadata cache").
func (c *Controller) evictMACPartial(t, pubAddr int64, e pub.Entry) {
	dataAddr := int64(e.BlockIndex) * int64(c.cfg.BlockSize)
	ma := c.lay.MACBlockAddr(dataAddr)
	slot := c.lay.MACSlot(dataAddr)
	line := c.macCache.Probe(ma)

	var outcome stats.EvictOutcome
	current := false
	switch {
	case line == nil:
		outcome = stats.EvictAlreadyEvicted
	case !line.Dirty:
		outcome = stats.EvictCleanCopy
	default:
		cached := c.eng.MAC2(macs.Slot(line.Data, slot, c.cfg.MACSize()))
		switch {
		case cached != e.MAC2:
			outcome = stats.EvictStaleCopy
		case line.Mask&(1<<uint(slot)) != 0:
			outcome = stats.EvictWrittenBack
			current = true
		default:
			outcome = stats.EvictCleanCopy
		}
	}
	c.st.AddEvict(outcome)
	c.emit(obs.KindPUBEvict, t, ma, pubAddr, "mac", evictOutcomeTag[outcome])

	if c.writeBackOnEvict(line, current, e.Status&pub.StatusMACWasDirty != 0) {
		c.persistMACLine(ma, line.Data)
		line.Dirty = false
		line.Mask = 0
	}
}

// writeBackOnEvict is the eviction policy's action for one partial of
// an evicted entry: whether its metadata block, cached in line (nil
// when no longer cached), still owes a full write-back. current reports
// that the entry is the newest update to its slot (the cached value
// matches and the slot's fine-grain dirty bit is set); wasDirty is the
// entry's status bit.
func (c *Controller) writeBackOnEvict(line *cache.Line, current, wasDirty bool) bool {
	if c.cfg.Scheme.Kind() == config.KindThothWTBC {
		return current
	}
	// WTSC: this update transitioned the block clean→dirty and the
	// block is still cached dirty.
	return !wasDirty && line != nil && line.Dirty
}

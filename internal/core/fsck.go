package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ctr"
	"repro/internal/macs"
	"repro/internal/pub"
)

// VerifyCrashConsistency checks the recovery-sufficiency invariant that
// the whole Thoth design rests on: if the machine crashed right now,
// every security-metadata update not yet persisted in place must be
// recoverable from the ADR domain.
//
// Concretely, for every dirty counter-cache line and every slot whose
// cached minor differs from the in-NVM copy, a live partial update with
// exactly that minor must exist in the PCB or the PUB; likewise for
// every divergent MAC slot (matched through the second-level MAC). The
// eviction policies (WTSC/WTBC) are allowed to discard entries only
// when this invariant keeps holding — a policy bug shows up here as a
// named, debuggable violation rather than as a root mismatch after a
// random crash.
//
// The check is functional only (no timing side effects) and is O(cache
// lines + PUB entries). Schemes without a PUB trivially satisfy it:
// the strict schemes (baseline, triad-relaxed) persist on write, and
// AnubisECC co-locates.
func (c *Controller) VerifyCrashConsistency() error {
	c.checkAlive()
	if c.ring == nil {
		return c.verifyInPlace()
	}

	// Collect live partial updates: PUB ring (oldest to youngest), then
	// the PCB's active entries (youngest). Later entries overwrite
	// earlier ones per block index, matching recovery's merge order.
	type update struct {
		minor uint8
		mac2  uint64
	}
	live := make(map[uint32]update)
	c.ring.Scan(func(entries []pub.Entry) bool {
		for _, e := range entries {
			live[e.BlockIndex] = update{minor: e.Minor, mac2: e.MAC2}
		}
		return true
	})
	for _, e := range c.pcb.UnpostedEntries() {
		live[e.BlockIndex] = update{minor: e.Minor, mac2: e.MAC2}
	}
	// PCB-after-WPQ: partials riding with pending WPQ entries are in the
	// ADR domain too.
	for _, lst := range c.afterEntries {
		for _, e := range lst {
			live[e.BlockIndex] = update{minor: e.Minor, mac2: e.MAC2}
		}
	}

	var violation error
	c.forEachCtrLine(func(addr int64, data []byte, dirty bool) {
		if violation != nil || !dirty {
			return
		}
		inPlace := c.dev.Peek(addr)
		page := c.lay.CtrIndex(addr)
		for slot := 0; slot < c.cfg.BlocksPerPage(); slot++ {
			cached := ctr.Minor(data, slot)
			persisted := ctr.Minor(inPlace, slot)
			if cached == persisted {
				continue
			}
			blockIdx := uint32((c.lay.DataBase + page*int64(c.cfg.PageBytes) + int64(slot)*int64(c.cfg.BlockSize)) / int64(c.cfg.BlockSize))
			u, ok := live[blockIdx]
			if !ok || u.minor != cached {
				violation = fmt.Errorf("core: counter block %#x slot %d: cached minor %d vs persisted %d with no covering partial update",
					addr, slot, cached, persisted)
				return
			}
		}
	})
	if violation != nil {
		return violation
	}

	c.forEachMACLine(func(addr int64, data []byte, dirty bool) {
		if violation != nil || !dirty {
			return
		}
		inPlace := c.dev.Peek(addr)
		macSize := c.cfg.MACSize()
		for slot := 0; slot < c.cfg.MACsPerBlock(); slot++ {
			cached := macs.Get(data, slot, macSize)
			if macs.Equal(inPlace, slot, macSize, cached) {
				continue
			}
			// Which data block does this MAC slot protect?
			blkOff := (addr-c.lay.MACBase)/int64(c.cfg.BlockSize)*8 + int64(slot)
			blockIdx := uint32((c.lay.DataBase + blkOff*int64(c.cfg.BlockSize)) / int64(c.cfg.BlockSize))
			u, ok := live[blockIdx]
			if !ok || u.mac2 != c.eng.MAC2(cached) {
				violation = fmt.Errorf("core: MAC block %#x slot %d diverges with no covering partial update", addr, slot)
				return
			}
		}
	})
	return violation
}

// verifyInPlace checks strict-persistence schemes: every clean line must
// equal the in-NVM copy, and the baseline leaves no dirty counter/MAC
// lines whose newest values are unreachable (they persist on write, so
// dirty lines simply must not exist... except transiently inside a
// persist; between operations they are clean).
func (c *Controller) verifyInPlace() error {
	var violation error
	c.forEachCtrLine(func(addr int64, data []byte, dirty bool) {
		if violation != nil || dirty {
			return
		}
		inPlace := c.dev.Peek(addr)
		for i := range data {
			if data[i] != inPlace[i] {
				violation = fmt.Errorf("core: clean counter line %#x diverges from NVM", addr)
				return
			}
		}
	})
	return violation
}

// forEachCtrLine visits every valid counter-cache line.
func (c *Controller) forEachCtrLine(fn func(addr int64, data []byte, dirty bool)) {
	c.ctrCache.ForEach(func(l *cache.Line) { fn(l.Addr, l.Data, l.Dirty) })
}

// forEachMACLine visits every valid MAC-cache line.
func (c *Controller) forEachMACLine(fn func(addr int64, data []byte, dirty bool)) {
	c.macCache.ForEach(func(l *cache.Line) { fn(l.Addr, l.Data, l.Dirty) })
}

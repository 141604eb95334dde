package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/stats"
)

// rootMagic marks a valid persisted-root control block.
const rootMagic = 0x5448_4F54_524F_4F54 // "THOTROOT"

// Crash models a power failure at cycle t. Only the ADR domain survives:
// the WPQ contents (already durable in this model), the PCB's in-flight
// partial updates (flushed to the PUB, duplicated to fill a block per
// Section IV-A), the PUB bounds registers, and the on-chip tree root.
// All volatile caches are lost. After Crash the controller is dead; use
// internal/recovery on the device image.
//
// A non-nil error reports that the residual-power flush could not place
// every unposted PCB entry into the PUB ring — a controller invariant
// violation (the eviction threshold is sized to guarantee headroom). The
// device image still carries everything that was flushed before the
// failure, but partial updates may be lost and recovery may not verify.
func (c *Controller) Crash(t int64) error {
	c.checkAlive()
	c.setNow(t)
	c.crashed = true

	// ADR drains the WPQ to media. Functional contents are already on
	// the device; this accounts the channel time. The residual-power
	// flush persists pending metadata in full (no divert heuristics).
	c.inADRFlush = true
	c.q.Flush(t)
	c.mem.DrainAll()

	var err error
	if c.ring != nil {
		// Flush every unposted PCB entry, padded to full blocks by
		// duplication (Section IV-A).
		err = c.flushPCB()
		c.ring.SaveCtl()
	}
	c.saveRoot()

	// Volatile state is gone.
	c.ctrCache.DropAll()
	c.macCache.DropAll()
	c.mtCache.DropAll()
	return err
}

// Shutdown models a clean power-down at cycle t: all dirty metadata is
// written back in place, the WPQ drains, and the root is persisted. The
// device image needs no recovery afterwards. Returns the cycle at which
// the channel goes idle, and a non-nil error under the same (invariant
// violation) condition as Crash.
func (c *Controller) Shutdown(t int64) (int64, error) {
	c.checkAlive()
	c.setNow(t)
	c.crashed = true

	c.ctrCache.WriteBackAll()
	c.macCache.WriteBackAll()
	c.mtCache.WriteBackAll()

	// Drain the WPQ before the PCB; the shutdown flush, like the crash
	// flush, persists pending metadata in full.
	c.inADRFlush = true
	c.q.Flush(t)
	c.mem.DrainAll()
	var err error
	if c.ring != nil {
		err = c.flushPCB()
		c.ring.SaveCtl()
	}
	c.saveRoot()
	return c.mem.DrainAll(), err
}

// flushPCB pushes every unposted PCB entry into the PUB ring as full
// blocks (the last padded by duplication), as the ADR flush does. The
// eviction threshold is sized so the ring always has headroom for this
// flush (attach caps evictBlocks at PUBBlocks-PCBEntries); a full ring
// is therefore a controller invariant violation. It is reported as an
// error — with the unplaced entries counted — rather than a panic, so a
// crashing system degrades to a diagnosable partial image instead of
// taking the host process down.
func (c *Controller) flushPCB() error {
	entries := c.pcb.DrainAll()
	per := c.cfg.PartialsPerBlock()
	for len(entries) > 0 {
		n := per
		if n > len(entries) {
			n = len(entries)
		}
		if c.ring.Full() {
			return fmt.Errorf("core: PUB ring full at ADR flush; %d partial updates not persisted (invariant violation)", len(entries))
		}
		blk := pub.FillByDuplication(entries[:n], per)
		pubAddr := c.ring.Push(pub.PackBlock(c.cfg.BlockSize, blk))
		c.emit(obs.KindPCBFlush, c.nowCycle, pubAddr, int64(n), "", "adr-flush")
		entries = entries[n:]
	}
	return nil
}

// saveRoot persists the eager tree root into the control region (block 1;
// block 0 holds the PUB ring bounds).
func (c *Controller) saveRoot() {
	blk := make([]byte, c.cfg.BlockSize)
	binary.LittleEndian.PutUint64(blk[0:8], rootMagic)
	binary.LittleEndian.PutUint64(blk[8:16], c.tree.Root())
	c.dev.WriteBlock(c.lay.CtlBase+int64(c.cfg.BlockSize), blk)
}

// LoadRoot reads the persisted tree root from a device image. It is used
// by recovery for post-merge verification.
func LoadRoot(blockSize int, ctlBase int64, peek func(addr int64) []byte) (uint64, error) {
	blk := peek(ctlBase + int64(blockSize))
	if len(blk) < 16 {
		return 0, fmt.Errorf("core: control region block truncated: %d bytes, need 16", len(blk))
	}
	if binary.LittleEndian.Uint64(blk[0:8]) != rootMagic {
		return 0, fmt.Errorf("core: control region holds no persisted root")
	}
	return binary.LittleEndian.Uint64(blk[8:16]), nil
}

// PrefillPUB replicates the ring's current contents (generated by a
// warm-up phase) until occupancy reaches the eviction threshold,
// mirroring the paper's methodology: "insert partial update entries into
// the PUB using realistic secure metadata generated during the
// fast-forwarding phase ... this threshold is met after the
// fast-forwarding phase" (Section V-A). An empty ring is a no-op: a
// workload whose partial updates fully merge in the PCB (e.g. swap)
// produces no PUB traffic and needs no prefill. Returns an error only
// when the scheme has no PUB at all.
func (c *Controller) PrefillPUB() error {
	c.checkAlive()
	if c.ring == nil {
		return fmt.Errorf("core: scheme %v has no PUB", c.cfg.Scheme)
	}
	seed := c.ring.PeekAll()
	if len(seed) == 0 {
		return nil
	}
	per := int64(c.cfg.PartialsPerBlock())
	i := 0
	for c.ring.Len() < c.evictBlocks && !c.ring.Full() {
		pubAddr := c.ring.Push(seed[i%len(seed)])
		// Emit the flush even for replicated blocks so the trace keeps
		// the invariant that every PUB eviction points back at a flush
		// of its ring address.
		c.emit(obs.KindPCBFlush, c.nowCycle, pubAddr, per, "", "prefill")
		i++
	}
	return nil
}

// ResetStats zeroes all statistics (between warm-up and measurement):
// the controller's ledger, which every component counts into, and the
// device's read and write counters.
func (c *Controller) ResetStats() {
	*c.st = stats.Stats{}
	c.dev.ResetCounters()
}

// SyncStats does nothing: every component counts straight into Stats.
// It is kept only because the benchmark module (bench/) still calls it.
func (c *Controller) SyncStats() {}

package core

import (
	"repro/internal/cache"
	"repro/internal/pub"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// The scheme.Host implementation: the mechanism surface the controller
// offers the pluggable persistence scheme. Each method is the verbatim
// extraction of the corresponding historical in-core path — device
// bytes, channel occupancy and statistics account identically, pinned
// by the crashfuzz scheme-gate oracle.

var _ scheme.Host = (*Controller)(nil)

// PersistCtrStrict writes the full counter block covering w.Addr
// through the WPQ at cycle t (the baseline's strict counter persist),
// cleans the line, and returns the completion cycle.
func (c *Controller) PersistCtrStrict(t int64, w *scheme.WriteCtx) int64 {
	ca := c.lay.CtrBlockAddr(w.Addr)
	c.dev.WriteBlock(ca, w.CtrLine.Data)
	res := c.q.Insert(t, ca)
	if !res.Coalesced {
		c.st.AddWrite(stats.WriteCounter)
	}
	w.CtrLine.Dirty = false
	w.CtrLine.Mask = 0
	return res.When
}

// PersistMACStrict is PersistCtrStrict for the MAC block.
func (c *Controller) PersistMACStrict(t int64, w *scheme.WriteCtx) int64 {
	ma := c.lay.MACBlockAddr(w.Addr)
	c.dev.WriteBlock(ma, w.MACLine.Data)
	res := c.q.Insert(t, ma)
	if !res.Coalesced {
		c.st.AddWrite(stats.WriteMAC)
	}
	w.MACLine.Dirty = false
	w.MACLine.Mask = 0
	return res.When
}

// CoLocateMetadata persists both metadata blocks as a side effect of
// the data write (the AnubisECC assumption): counter rides in the
// hypothetical ECC bits, the MAC on a parallel chip — functionally real
// but no extra block write, channel time or WPQ slot.
func (c *Controller) CoLocateMetadata(w *scheme.WriteCtx) {
	c.dev.WriteBlock(c.lay.CtrBlockAddr(w.Addr), w.CtrLine.Data)
	c.dev.WriteBlock(c.lay.MACBlockAddr(w.Addr), w.MACLine.Data)
	w.CtrLine.Dirty = false
	w.MACLine.Dirty = false
}

// MAC2 computes the second-level 8B MAC over a first-level MAC.
func (c *Controller) MAC2(mac1 []byte) uint64 { return c.eng.MAC2(mac1) }

// PCBInsert coalesces or appends one partial update into the PCB.
func (c *Controller) PCBInsert(t int64, e pub.Entry) int64 { return c.pcbInsert(t, e) }

// PCBInsertAfter routes one partial update through the PCB-after-WPQ
// arrangement.
func (c *Controller) PCBInsertAfter(t int64, dataAddr int64, e pub.Entry) int64 {
	return c.persistThothAfter(t, dataAddr, e)
}

// FlushDirtyTreeNodes persists every dirty Merkle-tree cache node in
// place and cleans it — the relaxed schemes' checkpoint primitive.
func (c *Controller) FlushDirtyTreeNodes() {
	c.mtCache.ForEach(func(l *cache.Line) {
		if l.Dirty {
			c.persistTreeNode(l.Addr)
			l.Dirty = false
		}
	})
}

// HashLatency is the modeled hash-unit latency in cycles.
func (c *Controller) HashLatency() int64 { return c.hashLat() }

// SchemeInfo describes the controller's persistence scheme (name,
// guarantees, tunables).
func (c *Controller) SchemeInfo() scheme.Info { return c.sch.Info() }

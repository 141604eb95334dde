package core

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/macs"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrIntegrity is wrapped by the panic value of a read whose data block
// fails MAC verification: the NVM image was tampered with or corrupted.
// Front-ends that recover the panic (internal/engine) return it as an
// error, so callers can test it with errors.Is.
var ErrIntegrity = errors.New("integrity violation")

// now tracks the controller-local notion of current time so that
// internal callbacks (cache evictions) can stamp channel work. It is
// updated at the entry of every public timed operation.
func (c *Controller) setNow(t int64) {
	if t > c.nowCycle {
		c.nowCycle = t
	}
}

// ReadBlock performs a secure demand read of one data block: fetch and
// verify the counter, read the ciphertext, decrypt, and verify the MAC.
// It returns the completion cycle and the plaintext.
//
// The returned plaintext is a borrow of controller-owned scratch: it is
// valid until the next controller operation. Callers that need the data
// past that point copy it out.
func (c *Controller) ReadBlock(t int64, addr int64) (int64, []byte) {
	c.checkAlive()
	c.setNow(t)
	cur := obs.NewCursor(c.span, t)

	ctrLine, tc := c.fetchCtr(t, addr)
	slot := c.lay.CtrSlot(addr)
	counter := ctr.Counter(ctrLine.Data, slot)

	// Ciphertext read overlaps OTP generation; the later of the two
	// gates the XOR. The view aliases device storage; the fetches below
	// only ever write other blocks (metadata regions), so it stays
	// valid through the decrypt.
	dataDone := c.mem.Read(t, addr, c.cfg.ReadLatencyCycles())
	c.st.NVMReads++
	ciphertext := c.dev.View(addr)

	macLine, tm := c.fetchMAC(t, addr)
	done := max64(max64(tc+c.aesLat(), dataDone), tm) + c.hashLat()
	// Attribution: everything up to the last fetch completion is fetch;
	// the remaining pad/hash tail to done is crypto. done never precedes
	// the fetch boundary, so the two charges sum to done − t exactly.
	cur.Charge(obs.SpanFetch, max64(max64(tc, dataDone), tm))
	cur.Charge(obs.SpanCrypto, done)

	size := c.cfg.MACSize()
	want := c.macBuf[:size]
	c.eng.MACInto(want, ciphertext, addr, counter)
	if !macs.Equal(macLine.Data, c.lay.MACSlot(addr), size, want) {
		panic(fmt.Errorf("core: MAC verification failed reading %#x (%w)", addr, ErrIntegrity))
	}
	plain := c.readBuf
	copy(plain, ciphertext)
	c.eng.XorPad(plain, addr, counter)
	return done, plain
}

// readBlockAllowEmpty is ReadBlock for blocks that may never have been
// written: an unwritten block returns zeros without MAC verification
// (there is nothing to verify — the allocator would hand out zero-fill
// pages), while a written block takes the full verified read path. The
// same borrowed-scratch contract as ReadBlock applies.
func (c *Controller) readBlockAllowEmpty(t int64, addr int64) (int64, []byte) {
	c.checkAlive()
	if !c.dev.Written(addr) {
		clear(c.readBuf)
		return t, c.readBuf
	}
	return c.ReadBlock(t, addr)
}

// WriteRange persists data at the data-region offset off, block by
// block in address order, and returns the cycle at which the last block
// is durable. A whole block persists directly; a partial block is read
// (zeros if never written), patched and persisted whole. Each block
// starts when the previous one completes, the first at t, and charges
// the installed span. The caller keeps the range inside the data
// region.
func (c *Controller) WriteRange(t, off int64, data []byte) int64 {
	bs := int64(c.cfg.BlockSize)
	for i := int64(0); i < int64(len(data)); {
		addr := c.lay.DataBase + (off+i)/bs*bs
		lo := (off + i) % bs
		n := min(bs-lo, int64(len(data))-i)
		block := data[i : i+n]
		if n < bs {
			var cur []byte
			t, cur = c.readBlockAllowEmpty(t, addr)
			copy(cur[lo:], block)
			block = cur
		}
		t = c.PersistBlock(t, addr, block)
		i += n
	}
	return t
}

// ReadRange fills dst from the data-region offset off, decrypting and
// verifying every covered block in address order (a never-written block
// reads as zeros), and returns the cycle at which the last block is
// read. Timing and span charging follow WriteRange.
func (c *Controller) ReadRange(t, off int64, dst []byte) int64 {
	bs := int64(c.cfg.BlockSize)
	for i := int64(0); i < int64(len(dst)); {
		var block []byte
		t, block = c.readBlockAllowEmpty(t, c.lay.DataBase+(off+i)/bs*bs)
		i += int64(copy(dst[i:], block[(off+i)%bs:]))
	}
	return t
}

// PersistBlock performs a secure persistent write of one data block (the
// clwb path): bump the split counter, encrypt, MAC, update the eager
// tree root, and persist per the configured scheme. It returns the cycle
// at which the write is durable (inside the ADR domain).
func (c *Controller) PersistBlock(t int64, addr int64, plain []byte) int64 {
	c.checkAlive()
	if len(plain) != c.cfg.BlockSize {
		panic(fmt.Sprintf("core: persist of %d bytes, block size is %d", len(plain), c.cfg.BlockSize))
	}
	c.setNow(t)
	cur := obs.NewCursor(c.span, t)

	// Counter and MAC block fetches proceed in parallel (the channel
	// serializes any misses).
	ctrLine, tc := c.fetchCtr(t, addr)
	macLine, tm := c.fetchMAC(t, addr)
	slot := c.lay.CtrSlot(addr)
	cur.Charge(obs.SpanFetch, max64(tc, tm))

	// Handle minor-counter overflow before bumping: the whole page is
	// re-encrypted under the new major and the counter block is
	// persisted immediately (Section IV-A).
	tOverflow := int64(0)
	if ctr.Minor(ctrLine.Data, slot) == crypt.MinorMax {
		tOverflow = c.reencryptPage(max64(tc, tm), addr, ctrLine)
		// Page re-encryption is crypto work on the critical path.
		cur.Charge(obs.SpanCrypto, tOverflow)
		// Page re-encryption touches every MAC block of the page and may
		// have displaced the line we hold; re-resolve it.
		macLine, tm = c.fetchMAC(tOverflow, addr)
		cur.Charge(obs.SpanFetch, tm)
	}

	// Dirty state is sampled *after* overflow handling (which persists
	// and cleans the lines): the WTSC status bits must reflect the state
	// this update transitions from, or the responsibility chain for
	// persisting the block on PUB eviction would have a hole.
	wasCtrDirty := ctrLine.Dirty
	wasMACDirty := macLine.Dirty

	counter, _ := ctr.Bump(ctrLine.Data, slot)

	// Eager logical tree update: the on-chip root always reflects the
	// newest counters (the Anubis-style persistent root both schemes
	// rely on for recovery verification).
	ctrIdx := c.lay.CtrIndex(c.lay.CtrBlockAddr(addr))
	c.tree.Update(ctrIdx, ctrLine.Data)
	c.markTreeDirty(ctrIdx)

	ciphertext := c.ctBuf
	mac1 := c.macBuf[:c.cfg.MACSize()]
	c.eng.EncryptInto(ciphertext, plain, addr, counter)
	c.eng.MACInto(mac1, ciphertext, addr, counter)
	macs.Set(macLine.Data, c.lay.MACSlot(addr), c.cfg.MACSize(), mac1)

	// Crypto critical path: OTP generation + first-level MAC + the
	// eager update of the small tree over the secure metadata cache
	// (Table I: 4-level, eager).
	tCrypto := max64(max64(tc, tm), tOverflow) + c.aesLat() + c.hashLat()
	cur.Charge(obs.SpanCrypto, tCrypto)
	tCrypto += int64(c.cfg.CacheTreeLevels) * c.hashLat()
	cur.Charge(obs.SpanTree, tCrypto)

	// WTBC fine-grain dirtiness tracking.
	ctrLine.Mask |= 1 << uint(slot)
	macLine.Mask |= 1 << uint(c.lay.MACSlot(addr))

	// Ciphertext becomes durable when it enters the WPQ.
	c.dev.WriteBlock(addr, ciphertext)
	res := c.q.Insert(tCrypto, addr)
	if !res.Coalesced {
		c.st.AddWrite(stats.WriteData)
	}
	done := res.When
	cur.Charge(obs.SpanWPQ, done)

	// Metadata persistence follows the scheme. A scheme that adds
	// nothing to the critical path (AnubisECC co-location) returns
	// tCrypto, which never raises done (the WPQ completes at or after
	// the insert cycle).
	done = max64(done, c.persistMetadata(tCrypto, addr, ctrLine, macLine, counter.Minor, mac1, wasCtrDirty, wasMACDirty))
	cur.Charge(obs.SpanPersist, done)
	return done
}

// persistMetadata makes the counter and MAC updates of the data block
// at addr durable under the configured scheme, starting at cycle t, and
// returns the cycle at which they are (never before t). minor is the
// block's post-bump minor counter and mac1 its first-level MAC;
// wasCtrDirty and wasMACDirty are the lines' dirty bits before this
// update, which the Thoth status bits record.
func (c *Controller) persistMetadata(t, addr int64, ctrLine, macLine *cache.Line, minor uint8, mac1 []byte, wasCtrDirty, wasMACDirty bool) int64 {
	switch c.cfg.Scheme.Kind() {
	case config.KindThothWTSC, config.KindThothWTBC:
		// The lines stay dirty (write-back); a packed partial update
		// enters the PCB, and the PUB eviction policy decides when a full
		// block write-back is still owed.
		ctrLine.Dirty = true
		macLine.Dirty = true
		e := pub.Entry{
			BlockIndex: uint32(addr / int64(c.cfg.BlockSize)),
			MAC2:       c.eng.MAC2(mac1),
			Minor:      minor,
		}
		t += c.hashLat() // second-level MAC computation
		if wasCtrDirty {
			e.Status |= pub.StatusCtrWasDirty
		}
		if wasMACDirty {
			e.Status |= pub.StatusMACWasDirty
		}
		c.st.PartialUpdates++
		if c.cfg.PCBAfterWPQ {
			return c.persistThothAfter(t, addr, e)
		}
		return c.pcbInsert(t, e)
	case config.KindAnubisECC:
		// Co-location (Section V-F): the counter rides in the ECC bits
		// and the MAC on a parallel chip, so both persist with the data
		// write — device bytes update and the lines clean, but no WPQ
		// slot, channel time or write is accounted.
		c.dev.WriteBlock(c.lay.CtrBlockAddr(addr), ctrLine.Data)
		c.dev.WriteBlock(c.lay.MACBlockAddr(addr), macLine.Data)
		ctrLine.Dirty = false
		macLine.Dirty = false
		return t
	}
	// Baseline and triad: strictly write the full counter block, then
	// the full MAC block queued behind its completion, through the WPQ.
	tc := c.persistStrict(t, c.lay.CtrBlockAddr(addr), ctrLine, stats.WriteCounter)
	tm := c.persistStrict(tc, c.lay.MACBlockAddr(addr), macLine, stats.WriteMAC)
	if c.cfg.Scheme.Kind() == config.KindTriadRelaxed {
		// Triad holds dirty tree nodes back from natural eviction and
		// checkpoints all of them once every epoch persisted blocks.
		c.sinceCheckpoint++
		if c.sinceCheckpoint >= c.cfg.Scheme.TriadEpoch() {
			c.sinceCheckpoint = 0
			c.flushDirtyTreeNodes()
		}
	}
	return max64(tc, tm)
}

// persistStrict writes the metadata block held in line to its home
// address through the WPQ at cycle t, cleans the line, and returns the
// completion cycle.
func (c *Controller) persistStrict(t, addr int64, line *cache.Line, cat stats.WriteCategory) int64 {
	c.dev.WriteBlock(addr, line.Data)
	res := c.q.Insert(t, addr)
	if !res.Coalesced {
		c.st.AddWrite(cat)
	}
	line.Dirty = false
	line.Mask = 0
	return res.When
}

// flushDirtyTreeNodes persists every dirty Merkle-tree cache node in
// place and cleans it: the triad checkpoint.
func (c *Controller) flushDirtyTreeNodes() {
	c.mtCache.ForEach(func(l *cache.Line) {
		if l.Dirty {
			c.persistTreeNode(l.Addr)
			l.Dirty = false
		}
	})
}

// pcbInsert coalesces or appends one partial update into the PCB
// (the augmented PCB-before-WPQ path), making room and posting full
// blocks past the watermark as needed. Returns the completion cycle.
func (c *Controller) pcbInsert(t int64, e pub.Entry) int64 {
	if c.pcb.TryMerge(e) {
		c.st.PCBMerged++
		return t
	}
	// Make room if every PCB slot is occupied: post a full block if one
	// exists, otherwise wait for an in-flight PUB write to retire.
	for c.pcb.Full() {
		if blk := c.pcb.PopPostable(); blk != nil {
			t = c.postPUBBlock(t, blk)
			continue
		}
		if c.mem.Pending() == 0 {
			panic("core: PCB full with no channel work outstanding")
		}
		t = max64(t, c.mem.ForceAny())
	}
	c.pcb.Append(e)
	c.st.PCBInserted++
	// Keep posting off the critical path: hand full blocks to the
	// channel once the unposted population crosses the watermark.
	for c.pcb.OverWatermark() {
		blk := c.pcb.PopPostable()
		if blk == nil {
			break
		}
		t = c.postPUBBlock(t, blk)
	}
	return t
}

// postPUBBlock writes one packed block of partial updates into the PUB
// ring, evicting from the ring when it is past the occupancy threshold.
// The caller has already removed the block from the PCB's unposted set.
func (c *Controller) postPUBBlock(t int64, entries []pub.Entry) int64 {
	for c.ring.Len() >= c.evictBlocks || c.ring.Full() {
		c.evictPUBBlock(t)
	}
	pub.PackBlockInto(c.pubBuf, entries)
	pubAddr := c.ring.Push(c.pubBuf)
	c.pcb.Recycle(entries)
	c.emit(obs.KindPCBFlush, t, pubAddr, int64(len(entries)), "", "")
	c.pcb.AddPending()
	c.mem.Post(pubAddr, sim.Item{Ready: t, Dur: c.cfg.WriteLatencyCycles(), Done: c.onPUBRetire})
	c.st.AddWrite(stats.WritePCB)
	return t
}

// reencryptPage handles a minor-counter overflow: every previously
// written block of the page is decrypted under its old counter and
// re-encrypted under the incremented major, MAC blocks are refreshed,
// and the counter block is persisted immediately. Returns the cycle at
// which the page rewrite is accounted.
func (c *Controller) reencryptPage(t int64, addr int64, ctrLine *cache.Line) int64 {
	c.st.CtrOverflows++
	blocksPerPage := c.cfg.BlocksPerPage()
	pageBase := addr - (addr-c.lay.DataBase)%int64(c.cfg.PageBytes)
	c.emit(obs.KindCtrOverflow, t, pageBase, int64(blocksPerPage), "", "")

	oldMajor := ctr.Major(ctrLine.Data)
	oldMinors := c.reencMinors
	for s := 0; s < blocksPerPage; s++ {
		oldMinors[s] = ctr.Minor(ctrLine.Data, s)
	}
	newMajor := oldMajor + 1
	newCtr := crypt.Counter{Major: newMajor, Minor: 0}

	for s := 0; s < blocksPerPage; s++ {
		blk := pageBase + int64(s)*int64(c.cfg.BlockSize)
		if !c.dev.Written(blk) {
			continue
		}
		// Transcrypt in place in the overflow scratch buffer: CTR-mode
		// decryption is an XOR with the old pad, re-encryption an XOR
		// with the new one.
		fresh := c.reencBuf
		c.dev.PeekInto(fresh, blk)
		c.eng.XorPad(fresh, blk, crypt.Counter{Major: oldMajor, Minor: oldMinors[s]})
		c.eng.XorPad(fresh, blk, newCtr)
		c.dev.WriteBlock(blk, fresh)
		c.mem.Post(blk, sim.Item{Ready: t, Dur: c.cfg.WriteLatencyCycles()})
		c.st.AddWrite(stats.WriteOther)
		t += c.aesLat() // decrypt+encrypt pipelined per block

		// Refresh the block's MAC under the new counter.
		mac1 := c.reencMAC[:c.cfg.MACSize()]
		c.eng.MACInto(mac1, fresh, blk, newCtr)
		macLine, tm := c.fetchMAC(t, blk)
		t = max64(t, tm) + c.hashLat()
		macs.Set(macLine.Data, c.lay.MACSlot(blk), c.cfg.MACSize(), mac1)
		c.persistMACLine(c.lay.MACBlockAddr(blk), macLine.Data)
		macLine.Dirty = false
		macLine.Mask = 0
	}

	// Apply the reset to the cached counter block and persist it
	// immediately (both schemes).
	ctr.SetMajor(ctrLine.Data, newMajor)
	for s := 0; s < blocksPerPage; s++ {
		ctr.SetMinor(ctrLine.Data, s, 0)
	}
	c.persistCtrLine(c.lay.CtrBlockAddr(addr), ctrLine.Data)
	ctrLine.Dirty = false
	ctrLine.Mask = 0

	ctrIdx := c.lay.CtrIndex(c.lay.CtrBlockAddr(addr))
	c.tree.Update(ctrIdx, ctrLine.Data)
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Package core implements the secure memory controller — the paper's
// primary contribution. One Controller owns the full secure-memory
// pipeline of Figure 2: counter-mode encryption with split counters, a
// write-back security-metadata cache trio (counter / MAC / Merkle-tree),
// an eagerly-updated Bonsai Merkle Tree root, the ADR-backed WPQ, and —
// under the Thoth schemes — the persistent combining buffer (PCB) and
// the off-chip partial updates buffer (PUB) with the WTSC or WTBC
// eviction policy.
//
// The persistence policy is config.Scheme's closed set of five
// (baseline-strict, thoth-wtsc, thoth-wtbc, anubis-ecc,
// triad-relaxed-N). Each policy decision is one switch on
// cfg.Scheme.Kind() where it acts: persistMetadata for what a persist
// writes, writeBackOnEvict for whether an evicted PUB partial still
// owes a full-block write-back, and the MT-cache victim callback for
// whether a dirty tree node persists on natural eviction.
//
// Functional and timing state advance together: every write is applied
// byte-accurately to the NVM device the moment it enters the ADR domain,
// while the sim.Channel tracks when the corresponding block transfers
// actually occupy the memory channel.
package core

import (
	"fmt"

	"repro/internal/bmt"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypt"
	"repro/internal/layout"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wpq"
)

// Controller is one secure memory controller instance.
type Controller struct {
	cfg config.Config
	lay *layout.Layout
	dev *nvm.Device
	eng *crypt.Engine
	mem *sim.Memory
	q   *wpq.WPQ
	st  *stats.Stats

	// sinceCheckpoint counts persisted blocks since the last tree
	// checkpoint (triad-relaxed only).
	sinceCheckpoint int

	ctrCache *cache.Cache // payload: counter block bytes
	macCache *cache.Cache // payload: MAC block bytes
	mtCache  *cache.Cache // tag-only; contents come from the logical tree
	tree     *bmt.Tree

	// Thoth machinery (nil for baseline/AnubisECC).
	pcb  *pub.PCB
	ring *pub.Ring
	// afterEntries holds the partial updates riding with pending WPQ
	// metadata-block entries in the PCB-after-WPQ arrangement, keyed by
	// metadata block address. Architecturally this state lives inside
	// the ADR-backed WPQ entries themselves.
	afterEntries map[int64][]pub.Entry
	// evictBlocks is the ring occupancy (in blocks) at which eviction
	// starts (PUBEvictFraction of capacity).
	evictBlocks int64

	// tr receives structured controller events; nil disables tracing
	// (the emit helper returns before constructing an event). schemeTag
	// is the scheme's static label, resolved once so emission never
	// formats strings.
	tr        obs.Tracer
	schemeTag string

	// flight is the always-on crash black box: a bounded ring of the
	// most recent events, independent of the opt-in tracer, snapshot by
	// Crash/Shutdown callers and dumped to JSONL alongside the crash
	// image. Emitting into it copies a flat Event under a mutex — no
	// allocation, so the disabled-tracer hot path stays 0 allocs/op.
	flight *obs.FlightRecorder

	// span, when non-nil, receives per-stage latency attribution for
	// every timed operation: persistBlock and ReadBlock charge each
	// segment of their critical path (fetch, crypto, tree, WPQ,
	// persist) so the stage cycles sum exactly to completion − entry.
	// nil disables charging at one branch per boundary.
	span *obs.Span

	crashed bool
	// inADRFlush marks the residual-power drain at crash/shutdown:
	// heuristics that would require reads or decisions (the
	// PCB-after-WPQ divert) are disabled and pending metadata persists
	// in full.
	inADRFlush bool
	nowCycle   int64

	// Hot-path scratch, reused across operations (the controller is
	// single-threaded). readBuf is the plaintext staging area ReadBlock
	// returns a borrow of; ctBuf stages ciphertext for PersistBlock;
	// macBuf holds the first-level MAC; pubBuf and entryBuf stage packed
	// PUB blocks and their unpacked entries; treeBuf stages a tree node
	// persisted on MT-cache eviction; onPUBRetire is the channel
	// completion callback, built once.
	readBuf     []byte
	ctBuf       []byte
	macBuf      [32]byte
	pubBuf      []byte
	entryBuf    []pub.Entry
	treeBuf     []byte
	onPUBRetire func(int64)

	// Page-overflow scratch for reencryptPage: its own block buffer,
	// MAC buffer and minors snapshot so the overflow path never aliases
	// ctBuf/macBuf (which stage the in-flight block's own ciphertext)
	// and never allocates — overflows recur every MinorMax writes per
	// block, so they are steady-state work, not a cold path.
	reencBuf    []byte
	reencMAC    [32]byte
	reencMinors []uint8
}

// New builds a controller with a fresh device.
func New(cfg config.Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	return attach(cfg, lay, nvm.New(lay.Total, cfg.BlockSize)), nil
}

// Attach builds a controller over an existing device image (post-recovery
// restart). The caller is responsible for the image being consistent.
func Attach(cfg config.Config, dev *nvm.Device) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	if dev.BlockSize() != cfg.BlockSize || dev.Capacity() < lay.Total {
		return nil, fmt.Errorf("core: device geometry does not fit layout")
	}
	c := attach(cfg, lay, dev)
	// Rebuild the eager tree from the device so the on-chip root matches
	// the persisted state.
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(addr int64, block []byte) {
		c.tree.Update(lay.CtrIndex(addr), block)
	})
	return c, nil
}

func attach(cfg config.Config, lay *layout.Layout, dev *nvm.Device) *Controller {
	mem := sim.NewMemoryRW(cfg.NVMBanks, cfg.BlockSize, cfg.ReadBehindWrites)
	drainAt := int(float64(cfg.WPQEntries) * cfg.WPQDrainFraction)
	if drainAt < 1 {
		drainAt = 1
	}
	qEntries := cfg.WPQEntries
	c := &Controller{
		cfg:      cfg,
		lay:      lay,
		dev:      dev,
		eng:      crypt.NewEngine(cfg.Seed),
		mem:      mem,
		st:       &stats.Stats{},
		ctrCache: cache.New(cfg.CtrCacheBytes, cfg.BlockSize, cfg.CtrCacheWays),
		macCache: cache.New(cfg.MACCacheBytes, cfg.BlockSize, cfg.MACCacheWays),
		mtCache:  cache.New(cfg.MTCacheBytes, cfg.BlockSize, cfg.MTCacheWays),

		tr:        cfg.Tracer,
		schemeTag: cfg.Scheme.String(),
		flight:    obs.NewFlightRecorder(0),

		readBuf: make([]byte, cfg.BlockSize),
		ctBuf:   make([]byte, cfg.BlockSize),
		pubBuf:  make([]byte, cfg.BlockSize),
		treeBuf: make([]byte, cfg.BlockSize),

		reencBuf:    make([]byte, cfg.BlockSize),
		reencMinors: make([]uint8, cfg.BlocksPerPage()),
	}
	c.tree = bmt.New(lay, c.eng)
	if cfg.Scheme.IsThoth() {
		// Thoth reserves PCB entries out of the WPQ (Section IV-C).
		qEntries = cfg.WPQEntries - cfg.PCBEntries
		drainAt = int(float64(qEntries) * cfg.WPQDrainFraction)
		if drainAt < 1 {
			drainAt = 1
		}
		c.pcb = pub.NewPCB(cfg.PCBEntries, cfg.PartialsPerBlock())
		c.ring = pub.NewRing(lay, dev)
		c.entryBuf = make([]pub.Entry, 0, cfg.PartialsPerBlock())
		c.onPUBRetire = func(int64) { c.pcb.CompletePending() }
		// Eviction starts at the configured occupancy, but always leaves
		// enough headroom for the crash-time ADR flush of every unposted
		// PCB block (Section IV-A's duplication trick needs ring space).
		c.evictBlocks = int64(float64(lay.PUBBlocks()) * cfg.PUBEvictFraction)
		if max := lay.PUBBlocks() - int64(cfg.PCBEntries); c.evictBlocks > max {
			c.evictBlocks = max
		}
		if c.evictBlocks < 1 {
			c.evictBlocks = 1
		}
	}
	c.q = wpq.New(mem, qEntries, drainAt, cfg.WriteLatencyCycles())
	// The WPQ emits drain events on its own; route them through the
	// flight recorder too so the crash black box sees queue behavior.
	if cfg.Tracer != nil {
		c.q.Tracer = obs.Multi(cfg.Tracer, c.flight)
	} else {
		c.q.Tracer = c.flight
	}
	c.q.Scheme = c.schemeTag
	if cfg.PCBAfterWPQ {
		c.afterEntries = make(map[int64][]pub.Entry)
		c.q.OnIssue = c.afterIssue
	}

	// Natural write-back paths: dirty victims of the metadata caches are
	// persisted in place. These callbacks fire during Insert.
	c.ctrCache.OnEvict = func(v cache.Line) {
		c.emit(obs.KindCacheEvict, c.nowCycle, v.Addr, dirtyAux(v.Dirty), "ctr", "")
		if v.Dirty {
			c.persistCtrLine(v.Addr, v.Data)
		}
	}
	c.macCache.OnEvict = func(v cache.Line) {
		c.emit(obs.KindCacheEvict, c.nowCycle, v.Addr, dirtyAux(v.Dirty), "mac", "")
		if v.Dirty {
			c.persistMACLine(v.Addr, v.Data)
		}
	}
	c.mtCache.OnEvict = func(v cache.Line) {
		c.emit(obs.KindCacheEvict, c.nowCycle, v.Addr, dirtyAux(v.Dirty), "mt", "")
		// Triad drops dirty tree victims (the tree is reconstructible
		// from the strictly persisted counter region and only persists at
		// checkpoints); all others write back lazily.
		if v.Dirty && c.cfg.Scheme.Kind() != config.KindTriadRelaxed {
			c.persistTreeNode(v.Addr)
		}
	}
	return c
}

// emit hands one event to the flight recorder and, when tracing is
// enabled, the configured tracer. Event is a flat value struct and the
// recorder copies it into a preallocated ring, so the disabled-tracer
// path stays 0 allocs/op (BenchmarkTracerDisabled holds this).
func (c *Controller) emit(k obs.Kind, cycle, addr, aux int64, part, detail string) {
	if c.tr == nil && c.flight == nil {
		return
	}
	e := obs.Event{
		Kind:   k,
		Cycle:  cycle,
		Addr:   addr,
		Aux:    aux,
		Scheme: c.schemeTag,
		Part:   part,
		Detail: detail,
	}
	if c.flight != nil {
		c.flight.Emit(e)
	}
	if c.tr != nil {
		c.tr.Emit(e)
	}
}

// dirtyAux encodes a victim's dirty bit for KindCacheEvict.
func dirtyAux(dirty bool) int64 {
	if dirty {
		return 1
	}
	return 0
}

// Tracer returns the tracer the controller emits to (nil when tracing
// is disabled).
func (c *Controller) Tracer() obs.Tracer { return c.tr }

// Flight returns the controller's always-on flight recorder.
func (c *Controller) Flight() *obs.FlightRecorder { return c.flight }

// FlightRecord snapshots the flight recorder: the retained event tail,
// frozen. Crash paths call this after Crash/Shutdown so the dump
// includes the ADR flush events of the crash sequence itself.
func (c *Controller) FlightRecord() obs.FlightRecord { return c.flight.Snapshot() }

// SetSpan installs (or, with nil, removes) the per-operation latency
// attribution span. The caller owns the span's lifecycle: reset it
// before each op, read the stage cycles after. The controller is
// single-threaded; the span is charged synchronously during timed
// operations and never retained beyond them.
func (c *Controller) SetSpan(s *obs.Span) { c.span = s }

// Span returns the installed attribution span (nil when disabled).
func (c *Controller) Span() *obs.Span { return c.span }

// Stats returns the run statistics.
func (c *Controller) Stats() *stats.Stats { return c.st }

// Device returns the NVM device (for recovery and tests).
func (c *Controller) Device() *nvm.Device { return c.dev }

// Layout returns the address map.
func (c *Controller) Layout() *layout.Layout { return c.lay }

// Engine returns the crypto engine.
func (c *Controller) Engine() *crypt.Engine { return c.eng }

// Root returns the current eager BMT root.
func (c *Controller) Root() uint64 { return c.tree.Root() }

// Memory exposes the banked NVM timing model (for utilization stats).
func (c *Controller) Memory() *sim.Memory { return c.mem }

// PCBMergeRate returns the Table III statistic (0 for non-Thoth schemes).
func (c *Controller) PCBMergeRate() float64 {
	if c.pcb == nil {
		return 0
	}
	return c.pcb.MergeRate()
}

// PUBOccupancy returns the ring occupancy fraction (0 for non-Thoth).
func (c *Controller) PUBOccupancy() float64 {
	if c.ring == nil {
		return 0
	}
	return c.ring.Occupancy()
}

// hashLat and aesLat are shorthand accessors.
func (c *Controller) hashLat() int64 { return int64(c.cfg.HashLatencyCycles) }
func (c *Controller) aesLat() int64  { return int64(c.cfg.AESLatencyCycles) }

// checkAlive panics if the controller was crashed; volatile state is gone
// and only recovery may touch the device.
func (c *Controller) checkAlive() {
	if c.crashed {
		panic("core: controller used after crash")
	}
}

// fetchCtr returns the counter-cache line for the counter block covering
// dataAddr, loading it from NVM (with integrity-tree walk) on a miss.
// It returns the line and the cycle at which the counter is available.
func (c *Controller) fetchCtr(t int64, dataAddr int64) (*cache.Line, int64) {
	ca := c.lay.CtrBlockAddr(dataAddr)
	if l := c.ctrCache.Lookup(ca); l != nil {
		c.st.CtrHits++
		return l, t
	}
	c.st.CtrMisses++
	done := c.mem.Read(t, ca, c.cfg.ReadLatencyCycles())
	c.st.NVMReads++
	// Verify the fetched counter against the integrity tree: walk the
	// path until a cached (already verified) node is found.
	done = c.walkTree(done, c.lay.CtrIndex(ca))
	l := c.ctrCache.InsertCopy(ca, c.dev.View(ca))
	return l, done
}

// fetchMAC is fetchCtr for MAC blocks (no tree walk: data integrity
// comes from the MAC itself, whose counter is tree-protected — the BMT
// insight of Section II-A).
func (c *Controller) fetchMAC(t int64, dataAddr int64) (*cache.Line, int64) {
	ma := c.lay.MACBlockAddr(dataAddr)
	if l := c.macCache.Lookup(ma); l != nil {
		c.st.MACHits++
		return l, t
	}
	c.st.MACMisses++
	done := c.mem.Read(t, ma, c.cfg.ReadLatencyCycles())
	c.st.NVMReads++
	l := c.macCache.InsertCopy(ma, c.dev.View(ma))
	return l, done
}

// walkTree charges the latency of verifying a counter block against the
// integrity tree: each uncached level costs an NVM read plus a hash; the
// walk stops at the first cached node (already verified).
func (c *Controller) walkTree(t int64, ctrIdx int64) int64 {
	done := t
	child := ctrIdx
	for level := 0; level < c.lay.TreeLevels(); level++ {
		parent, _ := layout.TreeParent(child)
		addr := c.lay.TreeNodeAddr(level, parent)
		if l := c.mtCache.Lookup(addr); l != nil {
			c.st.MTHits++
			done += c.hashLat() // verify child against cached node
			return done
		}
		c.st.MTMisses++
		done = c.mem.Read(done, addr, c.cfg.ReadLatencyCycles())
		c.st.NVMReads++
		done += c.hashLat()
		c.mtCache.Insert(addr, nil)
		child = parent
	}
	return done
}

// markTreeDirty records the lazy-update obligation for the leaf-level
// tree node covering a counter block: the node is dirtied in the MT
// cache and will be written back on natural eviction (Table I: lazy
// update for the MT over NVM).
func (c *Controller) markTreeDirty(ctrIdx int64) {
	parent, _ := layout.TreeParent(ctrIdx)
	addr := c.lay.TreeNodeAddr(0, parent)
	l := c.mtCache.Lookup(addr)
	if l == nil {
		c.st.MTMisses++
		l = c.mtCache.Insert(addr, nil)
	} else {
		c.st.MTHits++
	}
	l.Dirty = true
}

// persistCtrLine writes a counter block to its home location: device
// bytes eagerly, channel occupancy posted, statistics counted.
func (c *Controller) persistCtrLine(addr int64, data []byte) {
	c.dev.WriteBlock(addr, data)
	c.mem.Post(addr, sim.Item{Ready: c.nowCycle, Dur: c.cfg.WriteLatencyCycles()})
	c.st.AddWrite(stats.WriteCounter)
}

// persistMACLine writes a MAC block to its home location.
func (c *Controller) persistMACLine(addr int64, data []byte) {
	c.dev.WriteBlock(addr, data)
	c.mem.Post(addr, sim.Item{Ready: c.nowCycle, Dur: c.cfg.WriteLatencyCycles()})
	c.st.AddWrite(stats.WriteMAC)
}

// persistTreeNode lazily writes a Merkle-tree node from the logical tree.
func (c *Controller) persistTreeNode(addr int64) {
	level, idx := c.treeNodeAt(addr)
	c.emit(obs.KindTreeUpdate, c.nowCycle, addr, int64(level), "", "")
	c.tree.NodeBytesInto(c.treeBuf, level, idx)
	c.dev.WriteBlock(addr, c.treeBuf)
	c.mem.Post(addr, sim.Item{Ready: c.nowCycle, Dur: c.cfg.WriteLatencyCycles()})
	c.st.AddWrite(stats.WriteTree)
}

// treeNodeAt inverts layout.TreeNodeAddr.
func (c *Controller) treeNodeAt(addr int64) (level int, idx int64) {
	for l := 0; l < c.lay.TreeLevels(); l++ {
		base := c.lay.TreeBase[l]
		size := c.lay.TreeNodes[l] * int64(c.cfg.BlockSize)
		if addr >= base && addr < base+size {
			return l, (addr - base) / int64(c.cfg.BlockSize)
		}
	}
	panic(fmt.Sprintf("core: %#x is not a tree node address", addr))
}

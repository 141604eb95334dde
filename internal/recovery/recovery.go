// Package recovery implements the post-crash restoration procedure of
// Section IV-D. Given the NVM image left behind by a crash (the volatile
// caches are gone; the ADR domain — WPQ contents, PCB partials, PUB
// bounds, and the on-chip tree root — was flushed), it:
//
//  1. Restores the PUB ring bounds from the control region.
//
//  2. Scans the PUB oldest-to-youngest. For every packed partial update
//     it performs verify-then-merge: the candidate counter is assembled
//     from the in-place major and the entry's minor, the first-level MAC
//     is recomputed over the in-place ciphertext under that counter, and
//     the second-level MAC is compared against the entry's. A match
//     proves the entry corresponds to the ciphertext in NVM, so its
//     counter and (recomputed first-level) MAC are merged into their
//     home blocks; a mismatch means the entry is stale — the metadata
//     block in place, or a younger entry, already carries newer state —
//     and it is skipped. (This is the paper's "fetch the corresponding
//     ciphertext, compute two levels of MAC, and use the second level of
//     MAC to verify".) The entries are applied a window of up to
//     replayWindow consecutive ring entries at a time, each window in
//     ascending data-block order, the entries of one block in ring
//     order. The result is the FIFO replay's: an entry reads only its
//     own ciphertext, its counter block's major and its own counter
//     and MAC slots, and writes only those slots, so entries of
//     different data blocks commute. The order turns two random
//     host-cache misses per entry (counter block and ciphertext) into
//     an ascending sweep. Traced runs still emit every merge outcome
//     in ring order.
//
//     The scan overlaps the merge at every worker count: a producer
//     goroutine reads the ring and sorts window k+1 while the caller
//     merges window k, and the caller merges the windows strictly in
//     ring order. This is exact because the two sides share no
//     mutable state: merges read only ciphertexts and counter blocks'
//     majors and write only minor and MAC slots, none of which the
//     producer reads, and the producer reads only PUB blocks. In an
//     image the controller wrote, every block within the ring's
//     persisted bounds was written before the crash, so its storage
//     page exists before replay starts and no merge allocates a page
//     under the producer. The caller stops the producer and waits for
//     it on every return, a panic included.
//
//  3. Rebuilds the Bonsai Merkle Tree bottom-up from the merged counter
//     region and verifies it against the persisted root. Any tampering
//     with the PUB, the counters, or replayed stale blocks surfaces here
//     (or earlier as an unmergeable-but-claimed-fresh entry).
//
// Recover and RecoverParallel run this one pass; the worker count only
// decides how many mergers share each window (parallel.go). The
// producer runs at every worker count, so even Recover uses a second
// goroutine for its scan.
//
// The package also provides the analytic recovery-time model behind the
// paper's "7 seconds for a 64MB PUB" claim.
package recovery

import (
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/layout"
	"repro/internal/macs"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
)

// ErrRootMismatch is returned when the rebuilt tree root does not match
// the persisted root: the image is tampered or corrupt.
var ErrRootMismatch = errors.New("recovery: rebuilt tree root does not match persisted root")

// ErrNoControlState is returned when the image carries no usable ADR
// control state: the persisted root block or the PUB ring bounds are
// missing or corrupt. Every worker count wraps it identically, so
// errors.Is(err, ErrNoControlState) holds for Recover and
// RecoverParallel alike.
var ErrNoControlState = errors.New("recovery: control region holds no usable state")

// blockStore is the device access recovery merging needs. One merger
// uses the *nvm.Device directly; several use per-merger nvm.Shard
// handles, so every worker count runs the exact same mergeEntry.
type blockStore interface {
	PeekInto(dst []byte, addr int64)
	WriteBlock(addr int64, data []byte)
}

// Report summarizes one recovery run.
type Report struct {
	// PUBBlocks and PUBEntries are the ring contents scanned.
	PUBBlocks  int64
	PUBEntries int64
	// MergedCtr / MergedMAC count in-place metadata updates applied.
	MergedCtr int64
	MergedMAC int64
	// SkippedStale counts entries whose second-level MAC did not match
	// the in-place ciphertext (superseded by younger state).
	SkippedStale int64
	// RootVerified is true when the rebuilt tree matched the persisted
	// root.
	RootVerified bool
	// EstimatedCycles / EstimatedSeconds are the modeled recovery time
	// for the scanned PUB (Section IV-D's cost model, its merge divided
	// across Workers).
	EstimatedCycles  int64
	EstimatedSeconds float64

	// Workers is the worker count the run used (1 for Recover). Shards
	// is the per-shard breakdown, present only when more than one
	// worker merged. ScanCycles, MergeCycles, RebuildCycles and
	// VerifyCycles are the modeled per-phase costs (merge and rebuild
	// are critical path: the maximum over workers, not the sum); the
	// *WallNS fields are measured host wall time per phase. ScanWallNS
	// is the scanning goroutine's busy time (ring reads, radix sort,
	// shard split), which overlaps MergeWallNS, so their sum may
	// exceed the pass's wall time. None of these participate in
	// CountsEqual.
	Workers       int
	Shards        []ShardReport
	ScanCycles    int64
	MergeCycles   int64
	RebuildCycles int64
	VerifyCycles  int64
	ScanWallNS    int64
	MergeWallNS   int64
	RebuildWallNS int64
	VerifyWallNS  int64
}

// String renders the report for logs.
func (r *Report) String() string {
	s := fmt.Sprintf("recovery: %d PUB blocks, %d entries (%d ctr + %d mac merged, %d stale), root ok=%v, est %.2fs",
		r.PUBBlocks, r.PUBEntries, r.MergedCtr, r.MergedMAC, r.SkippedStale,
		r.RootVerified, r.EstimatedSeconds)
	if r.Workers > 1 {
		s += fmt.Sprintf("\n  parallel: %d workers; phases scan=%dcyc merge=%dcyc rebuild=%dcyc verify=%dcyc",
			r.Workers, r.ScanCycles, r.MergeCycles, r.RebuildCycles, r.VerifyCycles)
		for _, sh := range r.Shards {
			s += fmt.Sprintf("\n  shard %d: %d entries (%d ctr + %d mac merged, %d stale), %dcyc",
				sh.Shard, sh.Entries, sh.MergedCtr, sh.MergedMAC, sh.SkippedStale, sh.MergeCycles)
		}
	}
	return s
}

// ShardReport is one merge shard's slice of a parallel recovery run.
type ShardReport struct {
	// Shard is the shard index in [0, Workers).
	Shard int
	// Entries is how many PUB entries hashed to this shard.
	Entries int64
	// MergedCtr / MergedMAC / SkippedStale split Entries by outcome,
	// with the same meaning as the whole-run counters.
	MergedCtr    int64
	MergedMAC    int64
	SkippedStale int64
	// MergeCycles is the shard's modeled merge cost; WallNS the measured
	// host wall time its worker spent merging.
	MergeCycles int64
	WallNS      int64
}

// CountsEqual reports whether two runs recovered the same state: every
// semantic counter and the verification outcome must match. Timing
// (modeled cycles, wall clock) and parallel-engine shape (Workers,
// Shards, per-phase breakdowns) are ignored, so runs over the same
// image at different worker counts compare equal exactly when they did
// the same work.
func (r *Report) CountsEqual(o *Report) bool {
	return r.PUBBlocks == o.PUBBlocks &&
		r.PUBEntries == o.PUBEntries &&
		r.MergedCtr == o.MergedCtr &&
		r.MergedMAC == o.MergedMAC &&
		r.SkippedStale == o.SkippedStale &&
		r.RootVerified == o.RootVerified
}

// Recover restores a crashed device image in place and verifies it: the
// recovery pass at one worker. The configuration must match the one the
// image was created under (block size, seed/keys, PUB geometry).
func Recover(cfg config.Config, dev *nvm.Device) (*Report, error) {
	return recoverPass(cfg, dev, 1, replayWindow)
}

// recoverPass is the recovery pass: workers mergers replay the PUB in
// windows of at most size ring entries (Thoth schemes only), then the
// caller rebuilds the tree, compares its root with the persisted one
// and fills every phase field. Each phase emits its whole-phase span
// when the run is traced.
func recoverPass(cfg config.Config, dev *nvm.Device, workers, size int) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	savedRoot, err := core.LoadRoot(cfg.BlockSize, lay.CtlBase, dev.Peek)
	if err != nil {
		return nil, fmt.Errorf("%w: no persisted root: %v", ErrNoControlState, err)
	}
	rep := &Report{Workers: workers}

	mergers := 1
	if cfg.Scheme.IsThoth() {
		mergers = workers
	}
	ms := newMergers(lay, dev, cfg.Seed, mergers)
	if cfg.Scheme.IsThoth() {
		if err := replay(cfg, lay, dev, ms, size, rep); err != nil {
			return nil, err
		}
	}

	// Rebuild: hash the written counter blocks into the tree once
	// merging has joined. The model divides the rebuild across the
	// workers, as recovery hardware would hash the leaves in parallel.
	start := time.Now()
	root, leaves := bmt.Rebuild(lay, ms[0].eng, dev)
	rep.RebuildWallNS = time.Since(start).Nanoseconds()
	read := cfg.ReadLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	levels := int64(lay.TreeLevels())
	rep.RebuildCycles = (leaves*(read+levels*hash) + int64(workers) - 1) / int64(workers)
	mergeEnd := rep.ScanCycles + rep.MergeCycles
	emitPhase(cfg, obs.PhaseRebuild, 0, mergeEnd, mergeEnd+rep.RebuildCycles)

	// Verify: the root join and comparison are sequential.
	start = time.Now()
	rep.RootVerified = root == savedRoot
	rep.VerifyWallNS = time.Since(start).Nanoseconds()
	rep.VerifyCycles = levels * hash
	rebuildEnd := mergeEnd + rep.RebuildCycles
	emitPhase(cfg, obs.PhaseVerify, 0, rebuildEnd, rebuildEnd+rep.VerifyCycles)

	rep.EstimatedCycles = recoveryCycles(cfg, rep.PUBBlocks, leaves, workers)
	rep.EstimatedSeconds = float64(rep.EstimatedCycles) / (cfg.CPUFreqGHz * 1e9)
	if !rep.RootVerified {
		return rep, ErrRootMismatch
	}
	return rep, nil
}

// replay merges the PUB ring through ms window by window: a producer
// goroutine scans and sorts the next window while the caller merges
// the current one. It fills the scan and merge phase fields of rep and
// emits their spans.
func replay(cfg config.Config, lay *layout.Layout, dev *nvm.Device, ms []merger, size int, rep *Report) error {
	start := time.Now()
	ring, err := openPUB(lay, dev, rep)
	if err != nil {
		return err
	}
	rep.ScanCycles = rep.PUBBlocks * cfg.ReadLatencyCycles()
	emitPhase(cfg, obs.PhaseScan, 0, 0, rep.ScanCycles)

	p := newPipeline(size, rep.PUBBlocks*int64(cfg.PartialsPerBlock()))
	setup := time.Since(start).Nanoseconds()
	p.start(cfg, ring, shardGroupBlocks(cfg), len(ms))
	defer p.stop()
	for i := range p.full {
		t := time.Now()
		p.win[i].merge(cfg, ms, &p.merging)
		rep.MergeWallNS += time.Since(t).Nanoseconds()
		p.free <- i
	}
	rep.PUBEntries = p.entries
	rep.ScanWallNS = setup + p.busyNS

	perEntry := entryCycles(cfg)
	for s := range ms {
		sr := &ms[s].sr
		sr.Shard = s
		sr.MergeCycles = sr.Entries * perEntry
		rep.MergedCtr += sr.MergedCtr
		rep.MergedMAC += sr.MergedMAC
		rep.SkippedStale += sr.SkippedStale
		rep.MergeCycles = max(rep.MergeCycles, sr.MergeCycles) // critical path: slowest shard
	}
	if len(ms) > 1 {
		rep.Shards = make([]ShardReport, len(ms))
		for s := range ms {
			rep.Shards[s] = ms[s].sr
			emitPhase(cfg, obs.PhaseMerge, int64(s)+1,
				rep.ScanCycles, rep.ScanCycles+ms[s].sr.MergeCycles)
		}
	}
	emitPhase(cfg, obs.PhaseMerge, 0, rep.ScanCycles, rep.ScanCycles+rep.MergeCycles)
	return nil
}

// recoveryCycles models the scheme's recovery bill over an image whose
// PUB held pubBlocks at the crash and whose counter region holds leaves
// written blocks: footnote 5's PUB replay for the Thoth schemes, its
// merge divided across workers; for triad, a full bottom-up tree
// rebuild (one read plus a per-level hash chain per written counter
// block) in place of trusting the lazily written-back tree region;
// nothing for the strict baseline and co-location.
func recoveryCycles(cfg config.Config, pubBlocks, leaves int64, workers int) int64 {
	switch cfg.Scheme.Kind() {
	case config.KindThothWTSC, config.KindThothWTBC:
		return EstimateCyclesParallel(cfg, pubBlocks, workers)
	case config.KindTriadRelaxed:
		return leaves * (cfg.ReadLatencyCycles() + int64(cfg.NVMTreeLevels)*int64(cfg.HashLatencyCycles))
	}
	return 0
}

// entryCycles is the modeled verify-then-merge cost of one PUB entry
// (Section IV-D, EstimateCycles): reads of the counter block, ciphertext
// and MAC block, two MAC computations, and writes of the counter and MAC
// blocks.
func entryCycles(cfg config.Config) int64 {
	return 3*cfg.ReadLatencyCycles() + 2*int64(cfg.HashLatencyCycles) + 2*cfg.WriteLatencyCycles()
}

// openPUB restores the PUB ring bounds from the control region and
// records the ring size in rep.
func openPUB(lay *layout.Layout, dev *nvm.Device, rep *Report) (*pub.Ring, error) {
	ring := pub.NewRing(lay, dev)
	if err := ring.LoadCtl(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoControlState, err)
	}
	rep.PUBBlocks = ring.Len()
	return ring, nil
}

// scanPUB walks the ring oldest-to-youngest, handing fn every entry as a
// task stamped with the cycle the serial Section IV-D model reaches
// after it: one block read per PUB block, then entryCycles per entry.
// The cycle stamps the emitted KindRecoveryMerge events, so a traced
// recovery renders as a timeline, identically at every worker count.
// It stops when fn returns false, and returns how many entries it
// handed fn.
func scanPUB(cfg config.Config, ring *pub.Ring, fn func(shardTask) bool) (entries int64) {
	read := cfg.ReadLatencyCycles()
	perEntry := entryCycles(cfg)
	cyc := int64(0)
	ring.Scan(func(block []pub.Entry) bool {
		cyc += read
		for _, e := range block {
			entries++
			cyc += perEntry
			if !fn(shardTask{cyc: cyc, mac2: e.MAC2, block: e.BlockIndex, minor: e.Minor}) {
				return false
			}
		}
		return true
	})
	return entries
}

// scratchBytes is one merger's block scratch: a counter block, a
// ciphertext and a MAC block of the largest block size config.Validate
// accepts (256 B), then one first-level MAC.
const scratchBytes = 3*256 + 256/8

// cacheLine is the host cache-line size a merger is padded to.
const cacheLine = 64

// merger is one worker's verify-then-merge state: block scratch reused
// across entries, so merging allocates nothing per entry, then the
// device view it merges through, its crypto engine (engines carry
// scratch and are not concurrency-safe) and the counts of what it
// merged. The scratch comes first and a merger fills whole cache lines,
// so in a []merger each merger's scratch starts on a cache line and no
// two mergers, run by different goroutines, share one.
type merger struct {
	// buf holds the counter block, the ciphertext, the MAC block and
	// the recomputed first-level MAC, in that order.
	buf [scratchBytes]byte
	mergerState
	_ [cacheLine - (scratchBytes+unsafe.Sizeof(mergerState{}))%cacheLine]byte
}

// mergerState is a merger's fields after its scratch.
type mergerState struct {
	lay *layout.Layout
	eng *crypt.Engine
	dev blockStore
	sr  ShardReport
}

// newMergers returns n mergers in one allocation, each with its own
// engine. One merger uses dev directly; several use one locked shard
// view each.
func newMergers(lay *layout.Layout, dev *nvm.Device, seed int64, n int) []merger {
	ms := make([]merger, n)
	for i := range ms {
		ms[i].lay = lay
		ms[i].eng = crypt.NewEngine(seed)
		ms[i].dev = dev
		if n > 1 {
			ms[i].dev = dev.Shard()
		}
	}
	return ms
}

// merge applies tasks through m in slice order, recording each task's
// outcome, and adds them to m's counts and merge wall time.
func (m *merger) merge(tasks []shardTask) {
	start := time.Now()
	for i := range tasks {
		tasks[i].out = m.mergeEntry(&tasks[i])
	}
	m.sr.Entries += int64(len(tasks))
	m.sr.WallNS += time.Since(start).Nanoseconds()
}

// mergeAsync is merge on a shard goroutine: it marks wg done once the
// tasks are merged.
func (m *merger) mergeAsync(tasks []shardTask, wg *sync.WaitGroup) {
	defer wg.Done()
	m.merge(tasks)
}

// mergeEntry applies one partial update if it proves fresh against the
// in-place ciphertext, and returns what it did. Determinism across
// worker counts rests on every read and write here targeting blocks
// owned by the entry's shard group (the data ciphertext is read-only
// during merging, and the counter/MAC home blocks define the group).
func (m *merger) mergeEntry(t *shardTask) outcome {
	lay, dev, sr := m.lay, m.dev, &m.sr
	bs := lay.BlockSize
	ctrBlk := m.buf[:bs:bs]
	data := m.buf[bs : 2*bs : 2*bs]
	macBlk := m.buf[2*bs : 3*bs : 3*bs]
	mac1 := m.buf[3*bs : 3*bs+lay.MACSize()]
	dataAddr := int64(t.block) * int64(bs)
	if dataAddr < lay.DataBase || dataAddr >= lay.DataBase+lay.DataBytes {
		// A corrupted entry; the root check will catch real damage, but
		// never dereference a bogus address.
		sr.SkippedStale++
		return outOutOfRange
	}
	ca := lay.CtrBlockAddr(dataAddr)
	cslot := lay.CtrSlot(dataAddr)
	dev.PeekInto(ctrBlk, ca)

	candidate := crypt.Counter{Major: ctr.Major(ctrBlk), Minor: t.minor}
	dev.PeekInto(data, dataAddr)
	m.eng.MACInto(mac1, data, dataAddr, candidate)
	if m.eng.MAC2(mac1) != t.mac2 {
		sr.SkippedStale++
		return outStale
	}

	// The entry matches the newest ciphertext: merge counter and MAC
	// into their home blocks.
	out := outNoop
	if ctr.Minor(ctrBlk, cslot) != t.minor {
		ctr.SetMinor(ctrBlk, cslot, t.minor)
		dev.WriteBlock(ca, ctrBlk)
		sr.MergedCtr++
		out |= outCtr
	}
	ma := lay.MACBlockAddr(dataAddr)
	mslot := lay.MACSlot(dataAddr)
	dev.PeekInto(macBlk, ma)
	if !macs.Equal(macBlk, mslot, len(mac1), mac1) {
		macs.Set(macBlk, mslot, len(mac1), mac1)
		dev.WriteBlock(ma, macBlk)
		sr.MergedMAC++
		out |= outMAC
	}
	return out
}

// EstimateCycles models the PUB-merge recovery cost (footnote 5 of the
// paper): for each PUB block, one block read, then entryCycles for each
// of its entries.
func EstimateCycles(cfg config.Config, pubBlocks int64) int64 {
	return pubBlocks * (cfg.ReadLatencyCycles() + int64(cfg.PartialsPerBlock())*entryCycles(cfg))
}

// EstimateSeconds converts EstimateCycles to wall-clock seconds.
func EstimateSeconds(cfg config.Config, pubBlocks int64) float64 {
	return float64(EstimateCycles(cfg, pubBlocks)) / (cfg.CPUFreqGHz * 1e9)
}

// EstimateCyclesParallel models sharded recovery: the PUB scan stays
// sequential (one block read per PUB block, in FIFO order), while the
// per-entry verify-then-merge work — which dominates, at two MAC
// computations plus three reads and two writes per entry — divides
// across the workers. Workers <= 1 reduces to EstimateCycles exactly.
func EstimateCyclesParallel(cfg config.Config, pubBlocks int64, workers int) int64 {
	if workers <= 1 {
		return EstimateCycles(cfg, pubBlocks)
	}
	entries := pubBlocks * int64(cfg.PartialsPerBlock())
	merge := (entries*entryCycles(cfg) + int64(workers) - 1) / int64(workers)
	return pubBlocks*cfg.ReadLatencyCycles() + merge
}

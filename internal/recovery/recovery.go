// Package recovery implements the post-crash restoration procedure of
// Section IV-D. Given the NVM image left behind by a crash (the volatile
// caches are gone; the ADR domain — WPQ contents, PCB partials, PUB
// bounds, and the on-chip tree root — was flushed), it:
//
//  1. Restores the PUB ring bounds from the control region.
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
//  3. Rebuilds the Bonsai Merkle Tree bottom-up from the merged counter
//     region and verifies it against the persisted root. Any tampering
//     with the PUB, the counters, or replayed stale blocks surfaces here
//     (or earlier as an unmergeable-but-claimed-fresh entry).
//
// The package also provides the analytic recovery-time model behind the
// paper's "7 seconds for a 64MB PUB" claim.
package recovery

import (
	"errors"
	"fmt"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/layout"
	"repro/internal/macs"
	"repro/internal/nvm"
	"repro/internal/pub"
)

// ErrRootMismatch is returned when the rebuilt tree root does not match
// the persisted root: the image is tampered or corrupt.
var ErrRootMismatch = errors.New("recovery: rebuilt tree root does not match persisted root")

// ErrNoControlState is returned when the image carries no usable ADR
// control state: the persisted root block or the PUB ring bounds are
// missing or corrupt. Serial and parallel recovery wrap it identically,
// so errors.Is(err, ErrNoControlState) holds on both paths.
var ErrNoControlState = errors.New("recovery: control region holds no usable state")

// blockStore is the device access recovery merging needs. The serial
// path passes the *nvm.Device directly; the parallel path passes
// per-worker nvm.Shard handles, so both run the exact same mergeEntry.
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
	// for the scanned PUB (Section IV-D's cost model; the parallel model
	// when Workers > 0).
	EstimatedCycles  int64
	EstimatedSeconds float64

	// Parallel recovery (RecoverParallel). Workers is the worker count
	// the run used (0 for the serial Recover); Shards is the per-shard
	// breakdown. ScanCycles, MergeCycles, RebuildCycles and VerifyCycles
	// are the modeled per-phase costs (merge and rebuild are critical
	// path: the maximum over workers, not the sum); the *WallNS fields
	// are measured host wall time per phase. None of these participate
	// in CountsEqual.
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

	// Shadow-accelerated recovery (Anubis fast path; only populated when
	// the image was written with ShadowTracking enabled).
	ShadowCtrSuspects int64
	ShadowMACSuspects int64
	// FastRecoverySeconds models PUB merge + reconstruction of only the
	// suspect tree paths; FullRebuildSeconds models rebuilding the tree
	// over every written counter block.
	FastRecoverySeconds float64
	FullRebuildSeconds  float64
}

// String renders the report for logs.
func (r *Report) String() string {
	s := fmt.Sprintf("recovery: %d PUB blocks, %d entries (%d ctr + %d mac merged, %d stale), root ok=%v, est %.2fs",
		r.PUBBlocks, r.PUBEntries, r.MergedCtr, r.MergedMAC, r.SkippedStale,
		r.RootVerified, r.EstimatedSeconds)
	if r.ShadowCtrSuspects+r.ShadowMACSuspects > 0 {
		s += fmt.Sprintf("; shadow fast path: %d+%d suspects, %.3fs vs %.3fs full rebuild",
			r.ShadowCtrSuspects, r.ShadowMACSuspects,
			r.FastRecoverySeconds, r.FullRebuildSeconds)
	}
	if r.Workers > 0 {
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
// Shards, per-phase breakdowns) are ignored, so a serial and a parallel
// run over the same image compare equal exactly when they did the same
// work.
func (r *Report) CountsEqual(o *Report) bool {
	return r.PUBBlocks == o.PUBBlocks &&
		r.PUBEntries == o.PUBEntries &&
		r.MergedCtr == o.MergedCtr &&
		r.MergedMAC == o.MergedMAC &&
		r.SkippedStale == o.SkippedStale &&
		r.RootVerified == o.RootVerified &&
		r.ShadowCtrSuspects == o.ShadowCtrSuspects &&
		r.ShadowMACSuspects == o.ShadowMACSuspects
}

// Recover restores a crashed device image in place and verifies it. The
// configuration must match the one the image was created under (block
// size, seed/keys, PUB geometry).
func Recover(cfg config.Config, dev *nvm.Device) (*Report, error) {
	return recoverSerial(cfg, dev, replayWindow)
}

// recoverSerial is Recover with replay windows of at most size entries.
func recoverSerial(cfg config.Config, dev *nvm.Device, size int) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	eng := crypt.NewEngine(cfg.Seed)
	rep := &Report{}

	savedRoot, err := core.LoadRoot(cfg.BlockSize, lay.CtlBase, dev.Peek)
	if err != nil {
		return nil, fmt.Errorf("%w: no persisted root: %v", ErrNoControlState, err)
	}

	if cfg.Scheme.IsThoth() {
		ring, err := openPUB(lay, dev, rep)
		if err != nil {
			return nil, err
		}
		m := newMerger(cfg, lay, eng, dev, rep)
		w := newWindow(size, rep.PUBBlocks*int64(cfg.PartialsPerBlock()))
		scanPUB(cfg, ring, rep, func(t shardTask) {
			if w.add(t) {
				emitMerges(cfg, w.flush(m))
			}
		})
		emitMerges(cfg, w.flush(m))
	}

	rep.EstimatedCycles = recoveryCycles(cfg, lay, dev, rep.PUBBlocks, 1)
	rep.EstimatedSeconds = float64(rep.EstimatedCycles) / (cfg.CPUFreqGHz * 1e9)

	if cfg.ShadowTracking {
		estimateShadow(cfg, lay, dev, rep)
	}

	rep.RootVerified = bmt.Verify(lay, eng, dev, savedRoot)
	if !rep.RootVerified {
		return rep, ErrRootMismatch
	}
	return rep, nil
}

// recoveryCycles models the scheme's recovery bill over an image whose
// PUB held pubBlocks at the crash: footnote 5's PUB replay for the
// Thoth schemes, its merge divided across workers; for triad, a full
// bottom-up tree rebuild (one read plus a per-level hash chain per
// written counter block) in place of trusting the lazily written-back
// tree region; nothing for the strict baseline and co-location.
func recoveryCycles(cfg config.Config, lay *layout.Layout, dev *nvm.Device, pubBlocks int64, workers int) int64 {
	switch cfg.Scheme.Kind() {
	case config.KindThothWTSC, config.KindThothWTBC:
		return EstimateCyclesParallel(cfg, pubBlocks, workers)
	case config.KindTriadRelaxed:
		perBlock := cfg.ReadLatencyCycles() + int64(cfg.NVMTreeLevels)*int64(cfg.HashLatencyCycles)
		return writtenCtrBlocks(lay, dev) * perBlock
	}
	return 0
}

// writtenCtrBlocks counts the written blocks of the counter region.
func writtenCtrBlocks(lay *layout.Layout, dev *nvm.Device) int64 {
	var n int64
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(int64, []byte) { n++ })
	return n
}

// estimateShadow fills the Anubis-shadow-table recovery estimates
// (suspect counts, fast-path vs full-rebuild seconds); shared by the
// serial and parallel paths since it only reads the image.
func estimateShadow(cfg config.Config, lay *layout.Layout, dev *nvm.Device, rep *Report) {
	ctrSus, macSus := core.ShadowSuspects(lay, dev.Peek)
	rep.ShadowCtrSuspects = int64(len(ctrSus))
	rep.ShadowMACSuspects = int64(len(macSus))
	written := writtenCtrBlocks(lay, dev)
	read := cfg.ReadLatencyCycles()
	write := cfg.WriteLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	levels := int64(lay.TreeLevels())
	perBlock := read + levels*hash + write
	shadowReads := (lay.ShadowBytes/int64(cfg.BlockSize) + 1) * read
	fast := rep.EstimatedCycles + shadowReads +
		(rep.ShadowCtrSuspects+rep.ShadowMACSuspects)*perBlock
	full := rep.EstimatedCycles + written*(read+levels*hash)
	rep.FastRecoverySeconds = float64(fast) / (cfg.CPUFreqGHz * 1e9)
	rep.FullRebuildSeconds = float64(full) / (cfg.CPUFreqGHz * 1e9)
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
// recovery renders as a timeline, identically on the serial and
// parallel paths.
func scanPUB(cfg config.Config, ring *pub.Ring, rep *Report, fn func(shardTask)) {
	read := cfg.ReadLatencyCycles()
	perEntry := entryCycles(cfg)
	cyc := int64(0)
	ring.Scan(func(entries []pub.Entry) {
		cyc += read
		for _, e := range entries {
			rep.PUBEntries++
			cyc += perEntry
			fn(shardTask{cyc: cyc, mac2: e.MAC2, block: e.BlockIndex, minor: e.Minor})
		}
	})
}

// merger is one goroutine's verify-then-merge state: the device view it
// merges through, its crypto engine (engines carry scratch and are not
// concurrency-safe), the report it counts into, and block scratch reused
// across entries, so merging allocates nothing per entry.
type merger struct {
	cfg config.Config
	lay *layout.Layout
	eng *crypt.Engine
	dev blockStore
	rep *Report

	ctrBlk, data, macBlk, mac1 []byte
}

func newMerger(cfg config.Config, lay *layout.Layout, eng *crypt.Engine, dev blockStore, rep *Report) *merger {
	bs := cfg.BlockSize
	buf := make([]byte, 3*bs+cfg.MACSize())
	return &merger{
		cfg: cfg, lay: lay, eng: eng, dev: dev, rep: rep,
		ctrBlk: buf[:bs:bs],
		data:   buf[bs : 2*bs : 2*bs],
		macBlk: buf[2*bs : 3*bs : 3*bs],
		mac1:   buf[3*bs:],
	}
}

// mergeEntry applies one partial update if it proves fresh against the
// in-place ciphertext, and returns what it did. The device is a
// blockStore so the serial device and the parallel per-worker shard
// handles share this code: parallel determinism rests on every read and
// write here targeting blocks owned by the entry's shard group (the
// data ciphertext is read-only during merging, and the counter/MAC home
// blocks define the group).
func (m *merger) mergeEntry(t *shardTask) outcome {
	lay, dev, rep := m.lay, m.dev, m.rep
	dataAddr := int64(t.block) * int64(m.cfg.BlockSize)
	if dataAddr < lay.DataBase || dataAddr >= lay.DataBase+lay.DataBytes {
		// A corrupted entry; the root check will catch real damage, but
		// never dereference a bogus address.
		rep.SkippedStale++
		return outOutOfRange
	}
	ca := lay.CtrBlockAddr(dataAddr)
	cslot := lay.CtrSlot(dataAddr)
	dev.PeekInto(m.ctrBlk, ca)

	candidate := crypt.Counter{Major: ctr.Major(m.ctrBlk), Minor: t.minor}
	dev.PeekInto(m.data, dataAddr)
	m.eng.MACInto(m.mac1, m.data, dataAddr, candidate)
	if m.eng.MAC2(m.mac1) != t.mac2 {
		rep.SkippedStale++
		return outStale
	}

	// The entry matches the newest ciphertext: merge counter and MAC
	// into their home blocks.
	out := outNoop
	if ctr.Minor(m.ctrBlk, cslot) != t.minor {
		ctr.SetMinor(m.ctrBlk, cslot, t.minor)
		dev.WriteBlock(ca, m.ctrBlk)
		rep.MergedCtr++
		out |= outCtr
	}
	ma := lay.MACBlockAddr(dataAddr)
	mslot := lay.MACSlot(dataAddr)
	dev.PeekInto(m.macBlk, ma)
	if !macs.Equal(m.macBlk, mslot, len(m.mac1), m.mac1) {
		macs.Set(m.macBlk, mslot, len(m.mac1), m.mac1)
		dev.WriteBlock(ma, m.macBlk)
		rep.MergedMAC++
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

// EstimateSecondsParallel converts EstimateCyclesParallel to seconds.
func EstimateSecondsParallel(cfg config.Config, pubBlocks int64, workers int) float64 {
	return float64(EstimateCyclesParallel(cfg, pubBlocks, workers)) / (cfg.CPUFreqGHz * 1e9)
}

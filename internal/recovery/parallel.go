// Parallel sharded recovery: the PUB merge runs on worker goroutines,
// the tree rebuild and root check on the caller's. RecoverParallel must
// produce a byte-identical device image, an equal Report (modulo timing)
// and the same merge events as the serial Recover for every crash image
// and worker count — the crashfuzz oracle (internal/crashfuzz) checks
// the first two on every seed it sweeps or fuzzes, at 1, 2, 4 and 8
// workers.
//
// Why sharding by metadata *group* is sound: mergeEntry's writes
// read-modify-write whole counter blocks (shared by every data block of
// one page) and whole MAC blocks (shared by MACsPerBlock consecutive
// data blocks). Two entries may therefore only race if their data blocks
// share a counter or MAC home block, and both sharings are confined to a
// group of lcm(BlocksPerPage, MACsPerBlock) consecutive data blocks. The
// shard key hashes that group index, so same-group entries land in one
// shard, while cross-shard entries touch disjoint blocks — making the
// final image independent of scheduling, hence byte-identical to the
// serial pass.
//
// Each shard replays its entries through the serial path's window
// (replay.go): up to replayWindow of the shard's entries at a time, in
// ascending data-block order, the entries of one block in ring order.
// Within a group, entries of different data blocks read and write
// disjoint counter and MAC slots, so they commute. The workers emit
// nothing: after they join, the caller emits every merge outcome in
// ring order, so a traced run is reproducible.
package recovery

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/layout"
	"repro/internal/nvm"
	"repro/internal/obs"
)

// RecoverOpts configures RecoverParallel.
type RecoverOpts struct {
	// Workers is the number of merge goroutines, and the worker count
	// the cycle model divides the merge and the tree rebuild by. Values
	// <= 0 default to runtime.GOMAXPROCS(0); the count is capped at
	// maxWorkers.
	Workers int
}

// maxWorkers bounds the shard count: beyond this, per-shard bookkeeping
// outweighs any conceivable merge parallelism.
const maxWorkers = 256

// GroupBlocks returns the metadata-group span in data blocks — the unit
// that must never be split across shards, here or in the steady-state
// pool engine (internal/engine), which partitions the address space by
// whole groups for exactly the reason documented at the top of this
// file.
func GroupBlocks(cfg config.Config) int64 { return shardGroupBlocks(cfg) }

// shardGroupBlocks returns the number of consecutive data blocks that
// must stay in one shard: the least common multiple of the counter-block
// span (one counter block per page) and the MAC-block span.
func shardGroupBlocks(cfg config.Config) int64 {
	a := int64(cfg.BlocksPerPage())
	b := int64(cfg.MACsPerBlock())
	g := a
	for r := b; r != 0; {
		g, r = r, g%r
	}
	return a / g * b
}

// shardOf maps a group index onto a shard with a splitmix-style bit
// mixer, spreading hot neighbouring groups across workers while staying
// a pure function of the group (stable across runs and worker schedules).
func shardOf(group int64, workers int) int {
	h := uint64(group)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(workers))
}

// emitPhase emits the begin/end pair of one recovery phase span. shard
// is 0 for the whole-phase span, s+1 for shard s's slice of it.
func emitPhase(cfg config.Config, phase string, shard int64, begin, end int64) {
	if cfg.Tracer == nil {
		return
	}
	cfg.Tracer.Emit(obs.Event{
		Kind: obs.KindRecoveryPhase, Cycle: begin, Aux: shard,
		Scheme: cfg.Scheme.String(), Part: phase, Detail: obs.PhaseBegin,
	})
	cfg.Tracer.Emit(obs.Event{
		Kind: obs.KindRecoveryPhase, Cycle: end, Aux: shard,
		Scheme: cfg.Scheme.String(), Part: phase, Detail: obs.PhaseEnd,
	})
}

// RecoverParallel restores a crashed device image in place like Recover,
// but shards the PUB merge across worker goroutines. The result —
// device bytes, error (same sentinels, test with errors.Is), and Report
// counters (CountsEqual) — is identical to the serial pass for any
// worker count; only the timing fields and the per-shard breakdown
// differ.
func RecoverParallel(cfg config.Config, dev *nvm.Device, opts RecoverOpts) (*Report, error) {
	return recoverParallel(cfg, dev, opts, replayWindow)
}

// recoverParallel is RecoverParallel with replay windows of at most
// size entries per shard.
func recoverParallel(cfg config.Config, dev *nvm.Device, opts RecoverOpts, size int) (*Report, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxWorkers {
		workers = maxWorkers
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Workers: workers}

	savedRoot, err := core.LoadRoot(cfg.BlockSize, lay.CtlBase, dev.Peek)
	if err != nil {
		return nil, fmt.Errorf("%w: no persisted root: %v", ErrNoControlState, err)
	}

	read := cfg.ReadLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)

	if cfg.Scheme.IsThoth() {
		// Phase 1 — scan: walk the ring oldest-to-youngest exactly like
		// the serial pass, stamping each entry with its serial-model
		// cycle, and queue it on the shard owning its metadata group.
		scanStart := time.Now()
		ring, err := openPUB(lay, dev, rep)
		if err != nil {
			return nil, err
		}
		group := shardGroupBlocks(cfg)
		shards := make([][]shardTask, workers)
		var order []int // each entry's shard in ring order; kept when traced
		scanPUB(cfg, ring, rep, func(t shardTask) {
			s := shardOf(int64(t.block)/group, workers)
			shards[s] = append(shards[s], t)
			if cfg.Tracer != nil {
				order = append(order, s)
			}
		})
		rep.ScanCycles = rep.PUBBlocks * read
		rep.ScanWallNS = time.Since(scanStart).Nanoseconds()
		emitPhase(cfg, obs.PhaseScan, 0, 0, rep.ScanCycles)

		// Phase 2 — merge: one goroutine per shard, each with its own
		// merger (crypto engine and scratch) over a locked shard view of
		// the device.
		mergeStart := time.Now()
		shardReps := make([]Report, workers)
		shardWall := make([]int64, workers)
		var wg sync.WaitGroup
		for s := 0; s < workers; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				t0 := time.Now()
				m := newMerger(cfg, lay, crypt.NewEngine(cfg.Seed), dev.Shard(), &shardReps[s])
				replayShard(shards[s], m, size)
				shardWall[s] = time.Since(t0).Nanoseconds()
			}(s)
		}
		wg.Wait()
		rep.MergeWallNS = time.Since(mergeStart).Nanoseconds()
		if cfg.Tracer != nil {
			next := make([]int, workers)
			for _, s := range order {
				emitMerges(cfg, shards[s][next[s]:next[s]+1])
				next[s]++
			}
		}

		rep.Shards = make([]ShardReport, workers)
		for s := range rep.Shards {
			sr := &rep.Shards[s]
			sr.Shard = s
			sr.Entries = int64(len(shards[s]))
			sr.MergedCtr = shardReps[s].MergedCtr
			sr.MergedMAC = shardReps[s].MergedMAC
			sr.SkippedStale = shardReps[s].SkippedStale
			sr.MergeCycles = sr.Entries * entryCycles(cfg)
			sr.WallNS = shardWall[s]
			rep.MergedCtr += sr.MergedCtr
			rep.MergedMAC += sr.MergedMAC
			rep.SkippedStale += sr.SkippedStale
			if sr.MergeCycles > rep.MergeCycles {
				rep.MergeCycles = sr.MergeCycles // critical path: slowest shard
			}
			emitPhase(cfg, obs.PhaseMerge, int64(s)+1,
				rep.ScanCycles, rep.ScanCycles+sr.MergeCycles)
		}
		emitPhase(cfg, obs.PhaseMerge, 0, rep.ScanCycles, rep.ScanCycles+rep.MergeCycles)
	}

	rep.EstimatedCycles = recoveryCycles(cfg, lay, dev, rep.PUBBlocks, workers)
	rep.EstimatedSeconds = float64(rep.EstimatedCycles) / (cfg.CPUFreqGHz * 1e9)

	if cfg.ShadowTracking {
		estimateShadow(cfg, lay, dev, rep)
	}

	// Phase 3 — rebuild: hash the written counter blocks into the tree
	// on this goroutine; merging has fully joined. The model still
	// divides the rebuild across the workers, as recovery hardware
	// would hash the leaves in parallel.
	rebuildStart := time.Now()
	root := bmt.Rebuild(lay, crypt.NewEngine(cfg.Seed), dev)
	rep.RebuildWallNS = time.Since(rebuildStart).Nanoseconds()
	levels := int64(lay.TreeLevels())
	serialRebuild := writtenCtrBlocks(lay, dev) * (read + levels*hash)
	rep.RebuildCycles = (serialRebuild + int64(workers) - 1) / int64(workers)
	mergeEnd := rep.ScanCycles + rep.MergeCycles
	emitPhase(cfg, obs.PhaseRebuild, 0, mergeEnd, mergeEnd+rep.RebuildCycles)

	// Phase 4 — verify: the root join and comparison are sequential.
	verifyStart := time.Now()
	rep.RootVerified = root == savedRoot
	rep.VerifyWallNS = time.Since(verifyStart).Nanoseconds()
	rep.VerifyCycles = levels * hash
	rebuildEnd := mergeEnd + rep.RebuildCycles
	emitPhase(cfg, obs.PhaseVerify, 0, rebuildEnd, rebuildEnd+rep.VerifyCycles)
	if !rep.RootVerified {
		return rep, ErrRootMismatch
	}
	return rep, nil
}

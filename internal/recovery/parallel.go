// Parallel sharded recovery: each replay window is merged on worker
// goroutines, the tree rebuild and root check run on the caller's.
// RecoverParallel must produce a byte-identical device image, an equal
// Report (modulo timing) and the same merge events as Recover for every
// crash image and worker count — the crashfuzz oracle
// (internal/crashfuzz) checks the first two on every seed it sweeps or
// fuzzes, at 1, 2, 4 and 8 workers.
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
// one-worker pass.
//
// The scanning goroutine sorts each window by data block once
// (replay.go), then splits it by shard, keeping each shard's entries in
// that order: one shard's entries of one block stay in ring order, and
// within a group, entries of different data blocks read and write
// disjoint counter and MAC slots, so they commute. The caller starts one
// goroutine per shard on its slice, and all join before the caller
// merges the next window or hands this one back to be refilled. The
// workers emit nothing: after they join, the caller emits the window's
// merge outcomes in ring order, so a traced run is reproducible.
package recovery

import (
	"runtime"

	"repro/internal/config"
	"repro/internal/nvm"
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

// RecoverParallel restores a crashed device image in place like Recover,
// but merges each replay window on one goroutine per shard. The result —
// device bytes, error (same sentinels, test with errors.Is), Report
// counters (CountsEqual) and merge events — is identical to Recover's
// for any worker count; only the timing fields and the per-shard
// breakdown differ.
func RecoverParallel(cfg config.Config, dev *nvm.Device, opts RecoverOpts) (*Report, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return recoverPass(cfg, dev, min(workers, maxWorkers), replayWindow)
}

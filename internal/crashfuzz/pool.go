// Pool differential: run a seed's trace through a sharded multi-
// controller pool, crash an arbitrary (seed-derived) subset of the
// shards, recover shard-by-shard, and require the merged recovery image
// to agree block-for-block with BOTH the plaintext oracle and a
// single-controller run of the identical trace. This is the steady-state
// generalization of the serial-vs-parallel recovery differential: the
// group-sharded routing must be invisible at the plaintext level, for
// every crash subset.
package crashfuzz

import (
	"bytes"
	"errors"
	"fmt"

	thoth "repro"
	"repro/internal/config"
)

// poolMaskSalt decorrelates the crash-mask draws from the case
// derivation so adding the pool differential never perturbs existing
// seeds' traces.
const poolMaskSalt = 0x706f6f6c // "pool"

// PoolShardsFor picks the default per-seed shard count for mixed
// sweeps. The case geometry's MemBytes (256 MiB) is a power of two, so
// shard counts are drawn from powers of two only — 3, say, would not
// divide it.
func PoolShardsFor(seed int64) int {
	return []int{2, 4, 8, 16}[seed&3]
}

// PoolCrashMask derives the shard crash subset for a seed: each shard
// crashes with probability 1/2, with at least one crashed shard
// guaranteed (an all-clean "crash" is a plain shutdown, which the
// one-shard differential already covers). Pure function of (seed,
// shards).
func PoolCrashMask(seed int64, shards int) []bool {
	r := newRNG(seed ^ poolMaskSalt)
	mask := make([]bool, shards)
	any := false
	for i := range mask {
		mask[i] = r.Pct(50)
		any = any || mask[i]
	}
	if !any {
		mask[r.Intn(shards)] = true
	}
	return mask
}

// RunPool derives the case for a seed and executes the pool
// differential at the given shard count: the single-controller
// reference and the sharded pool (crashing the PoolCrashMask subset)
// both run the identical trace prefix, recover, and must agree with the
// golden plaintext and with each other. The case's own first scheme is
// used; shards must divide the case geometry's MemBytes.
func RunPool(seed int64, shards int) *Result {
	c := DeriveCase(seed)
	c.Schemes = c.Schemes[:1] // the pool differential is single-scheme
	res := &Result{Case: c}
	golden := goldenAfter(c)
	sch := c.Schemes[0]

	ref, viols := runScheme(c, sch, golden)
	res.Violations = append(res.Violations, viols...)

	mask := PoolCrashMask(seed, shards)
	poolBlocks, pviols := runPoolScheme(c, sch, shards, mask, golden)
	res.Violations = append(res.Violations, pviols...)

	if ref != nil && poolBlocks != nil {
		for _, addr := range sortedAddrs(golden) {
			if !bytes.Equal(ref[addr], poolBlocks[addr]) {
				res.Violations = append(res.Violations, Violation{
					Kind:   VPoolDiverge,
					Scheme: sch,
					Detail: fmt.Sprintf("block %#x recovered differently by the %d-shard pool (crash mask %v) and the single controller",
						addr, shards, mask),
				})
			}
		}
	}
	return res
}

// runPoolScheme executes the case's trace prefix through a sharded
// pool, crashes the masked shards (the rest shut down cleanly),
// recovers every crashed shard, reopens, and reads back every golden
// block. Violations mirror runScheme's; worker panics surface as errors
// from the pool API and are classified on the same ladder.
func runPoolScheme(c Case, sch config.Scheme, shards int, mask []bool, golden map[int64][]byte) (blocks map[int64][]byte, viols []Violation) {
	defer func() {
		if p := recover(); p != nil {
			blocks = nil
			viols = append(viols, Violation{VExecPanic, sch, fmt.Sprintf("pool: %v", p)})
		}
	}()
	cfg := c.ConfigFor(sch)
	pool, err := thoth.NewPool(cfg, shards)
	if err != nil {
		return nil, append(viols, Violation{VExecError, sch, "pool new: " + err.Error()})
	}
	// Power the shards down on every exit path; after a successful
	// CrashShards this is a no-op error.
	defer pool.Shutdown()
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = pool.Write(op.Addr, op.payload())
		case OpRead:
			_, err = pool.Read(op.Addr, op.Len)
		case OpCorrupt:
			// Hand-built cases only; the device-poking helper targets a
			// single controller's layout and has no pool equivalent.
			err = errors.New("OpCorrupt is not supported in pool cases")
		}
		if err != nil {
			return nil, append(viols, Violation{VExecError, sch,
				fmt.Sprintf("pool op %d (%s %#x+%d): %v", i, op.Kind, op.Addr, op.Len, err)})
		}
	}
	img, err := pool.CrashShards(mask)
	if err != nil {
		return nil, append(viols, Violation{VCrashError, sch, "pool: " + err.Error()})
	}
	if _, err := thoth.RecoverPool(cfg, shards, img, thoth.RecoverOpts{Workers: 2}); err != nil {
		return nil, append(viols, Violation{VRecoveryError, sch, "pool: " + err.Error()})
	}
	pool2, err := thoth.OpenPool(cfg, shards, img)
	if err != nil {
		return nil, append(viols, Violation{VReopenError, sch, "pool: " + err.Error()})
	}
	defer pool2.Shutdown()
	blocks = make(map[int64][]byte, len(golden))
	for _, addr := range sortedAddrs(golden) {
		want := golden[addr]
		got, err := pool2.Read(addr, len(want))
		switch {
		case err != nil:
			viols = append(viols, Violation{VDataLoss, sch,
				fmt.Sprintf("pool block %#x unreadable after recovery: %v", addr, err)})
		case !bytes.Equal(got, want):
			viols = append(viols, Violation{VDataLoss, sch,
				fmt.Sprintf("pool block %#x corrupted across crash (got %x... want %x...)",
					addr, got[:8], want[:8])})
		}
		blocks[addr] = got
	}
	return blocks, viols
}

package crashfuzz

import (
	"fmt"
	"strings"

	"repro/internal/config"
)

// Variant is one execution of a case's trace: a Scheme on a pool of
// Shards controllers, of which the Crash subset loses power (the rest
// shut down cleanly), with the crash image recovered by the serial
// reference and by parallel recovery at each of the Workers counts. One
// shard is exactly a thoth.System.
type Variant struct {
	Scheme  config.Scheme
	Shards  int
	Crash   []bool // one entry per shard
	Workers []int
}

// String names the variant in reports, e.g.
// "thoth-wtsc[shards=4 crash=1010]".
func (v Variant) String() string {
	var mask strings.Builder
	for _, c := range v.Crash {
		if c {
			mask.WriteByte('1')
		} else {
			mask.WriteByte('0')
		}
	}
	return fmt.Sprintf("%s[shards=%d crash=%s]", v.Scheme, v.Shards, mask.String())
}

// matrixSchemes are the schemes every derived case runs on one shard.
var matrixSchemes = []config.Scheme{
	config.ThothWTSC, config.ThothWTBC, config.BaselineStrict,
	config.AnubisECC, config.TriadRelaxed(8),
}

// matrixWorkers are the parallel-recovery worker counts each one-shard
// variant is checked at.
var matrixWorkers = []int{1, 2, 4, 8}

// variantsFor fills a seed's variant matrix. The derived scheme comes
// first, so the adversarial crash profile keeps running it; then every
// other matrix scheme on one shard; then the derived scheme on a
// PoolShardsFor(seed)-shard pool crashing PoolCrashMask(seed, n). The
// pool draws come from a generator salted apart from the case's own, so
// the matrix never perturbs a seed's trace, geometry or crash index.
func variantsFor(seed int64, derived config.Scheme) []Variant {
	vs := []Variant{{Scheme: derived, Shards: 1, Crash: []bool{true}, Workers: matrixWorkers}}
	for _, s := range matrixSchemes {
		if s != derived {
			vs = append(vs, Variant{Scheme: s, Shards: 1, Crash: []bool{true}, Workers: matrixWorkers})
		}
	}
	n := PoolShardsFor(seed)
	return append(vs, Variant{Scheme: derived, Shards: n, Crash: PoolCrashMask(seed, n), Workers: []int{2}})
}

// poolMaskSalt decorrelates the crash-mask draws from the case
// derivation.
const poolMaskSalt = 0x706f6f6c // "pool"

// PoolShardsFor picks a seed's pool shard count. The case geometry's
// MemBytes (256 MiB) is a power of two, so shard counts are drawn from
// powers of two only — 3, say, would not divide it.
func PoolShardsFor(seed int64) int {
	return []int{2, 4, 8, 16}[seed&3]
}

// PoolCrashMask derives the shard crash subset for a seed: each shard
// crashes with probability 1/2, with at least one crashed shard
// guaranteed (an all-clean "crash" is a plain shutdown, with nothing to
// recover). Pure function of (seed, shards).
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

package crashfuzz

import (
	"reflect"
	"testing"
)

// TestRunPoolKnownSeed spot-checks one seed end to end at every pool
// shard count the matrix draws: the seed's scheme on one controller and
// on pools of 2/4/8/16 shards, each crashing its PoolCrashMask subset
// and recovered serially and with 2 workers, must all read back the
// golden plaintext and agree with each other.
func TestRunPoolKnownSeed(t *testing.T) {
	c := DeriveCase(7)
	derived := c.Variants[0]
	c.Variants = []Variant{derived}
	for _, shards := range []int{2, 4, 8, 16} {
		c.Variants = append(c.Variants, Variant{
			Scheme: derived.Scheme, Shards: shards,
			Crash: PoolCrashMask(7, shards), Workers: []int{2},
		})
	}
	if res := Check(c); res.Failed() {
		t.Fatalf("\n%s", res)
	}
}

// TestPoolDifferential runs the seed's pool under every matrix scheme.
// The derived matrix runs its pool variant under the seed's scheme only,
// which is never anubis-ecc or triad-relaxed-8. On each seed, all five
// schemes on the PoolShardsFor(seed)-shard pool crashing the
// PoolCrashMask subset must read back the golden plaintext and agree
// with the derived scheme's run on one controller.
func TestPoolDifferential(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := DeriveCase(seed)
		pool := c.Variants[len(c.Variants)-1]
		c.Variants = c.Variants[:1]
		for _, s := range matrixSchemes {
			v := pool
			v.Scheme = s
			c.Variants = append(c.Variants, v)
		}
		if res := Check(c); res.Failed() {
			t.Fatalf("\n%s", res)
		}
	}
}

// TestPoolCrashMaskDeterministic pins the pool variant's derivation:
// pure in the seed, PoolShardsFor(seed) shards crashing the
// PoolCrashMask subset, always at least one crashed shard, and not the
// same subset on every seed (the sweep must actually vary coverage).
func TestPoolCrashMaskDeterministic(t *testing.T) {
	distinct := make(map[string]bool)
	for seed := int64(1); seed <= 64; seed++ {
		a := DeriveCase(seed).Variants
		b := DeriveCase(seed).Variants
		pa, pb := a[len(a)-1], b[len(b)-1]
		shards := PoolShardsFor(seed)
		if pa.Shards != shards || len(pa.Crash) != shards || len(pb.Crash) != shards {
			t.Fatalf("seed %d: pool variant %s, want %d shards", seed, pa, shards)
		}
		if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(pa.Crash, PoolCrashMask(seed, shards)) {
			t.Fatalf("seed %d: pool variant not deterministic: %s vs %s", seed, pa, pb)
		}
		crashed := 0
		for _, c := range pa.Crash {
			if c {
				crashed++
			}
		}
		if crashed == 0 {
			t.Fatalf("seed %d: no shard crashed", seed)
		}
		distinct[pa.String()] = true
	}
	if len(distinct) < 16 {
		t.Fatalf("only %d distinct pool variants over 64 seeds; mask derivation looks degenerate", len(distinct))
	}
}

package crashfuzz

import (
	"testing"

	"repro/internal/config"
)

// TestTriadSweepFindsNoViolations runs the relaxed-persistence scheme on
// each seed's pool as well as on one controller (the derived matrix runs
// it on one controller only). A small epoch makes checkpoints fire
// inside short fuzz traces while leaving relaxation windows (dirty tree
// nodes held back) open at most crash points; recovery must never trust
// the stale persisted tree region and must rebuild every crashed
// shard's root from the strictly persisted counter region.
func TestTriadSweepFindsNoViolations(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	triad := config.TriadRelaxed(8)
	for seed := int64(1); seed <= int64(n); seed++ {
		c := DeriveCase(seed)
		pool := c.Variants[len(c.Variants)-1]
		pool.Scheme = triad
		c.Variants = []Variant{{Scheme: triad, Shards: 1, Crash: []bool{true}, Workers: matrixWorkers}, pool}
		if res := Check(c); res.Failed() {
			t.Fatalf("\n%s", res)
		}
	}
}

// TestTriadEpochSweep varies the checkpoint epoch across one scenario:
// from checkpoint-every-persist (strict, epoch 1) to effectively never
// (epoch 1<<20), the recovered contents must match the strict baseline,
// whatever the epoch and the recovery worker count.
func TestTriadEpochSweep(t *testing.T) {
	c := DeriveCase(11)
	c.Variants = []Variant{{Scheme: config.BaselineStrict, Shards: 1, Crash: []bool{true}}}
	for _, epoch := range []int{1, 2, 8, 64, 1 << 20} {
		c.Variants = append(c.Variants, Variant{
			Scheme: config.TriadRelaxed(epoch), Shards: 1, Crash: []bool{true}, Workers: matrixWorkers,
		})
	}
	if res := Check(c); res.Failed() {
		t.Fatalf("\n%s", res)
	}
}

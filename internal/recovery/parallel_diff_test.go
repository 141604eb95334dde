// The differential sweep lives in an external test package because the
// crashfuzz harness imports the public repro facade, which itself wraps
// internal/recovery — an in-package test would close an import cycle.
package recovery_test

import (
	"testing"

	"repro/internal/crashfuzz"
)

// TestParallelRecoveryDifferential is the acceptance sweep for the
// parallel recovery engine: 200 seeded crash images, each taken under
// the seed's derived scheme on one controller and recovered with the
// serial engine and with RecoverParallel at Workers in {1, 2, 4, 8}.
// Every recovery must produce byte-identical device images, equal
// report counters and the same error sentinel. Seeds 401-600 follow the
// 1-200 that crashfuzz's TestSweepFindsNoViolations runs and the
// 201-400 of the `make crashfuzz` lane, so they add crash images
// instead of repeating them.
func TestParallelRecoveryDifferential(t *testing.T) {
	for seed := int64(401); seed <= 600; seed++ {
		c := crashfuzz.DeriveCase(seed)
		c.Variants = c.Variants[:1]
		if res := crashfuzz.Check(c); res.Failed() {
			t.Fatalf("\n%s", res)
		}
	}
}

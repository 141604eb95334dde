package crashfuzz

import (
	"testing"
)

// FuzzCrashRecovery is the native fuzz entry point:
//
//	go test -fuzz=FuzzCrashRecovery -fuzztime=30s ./internal/crashfuzz
//
// The fuzzer explores two dimensions: the case seed (which determines
// machine shape, workload trace, the derived crash point and the pool
// variant's shard count and crash subset) and an independent
// crash-point selector that overrides the derived one, so
// coverage-guided mutation can slide the crash across every operation
// boundary of an interesting trace without having to find a new seed
// that happens to crash there. Every input runs the seed's whole
// variant matrix.
func FuzzCrashRecovery(f *testing.F) {
	// The corpus spans both block sizes, both crash modes, every pool
	// shard count, and both selector regimes (0 keeps the derived crash
	// point).
	f.Add(int64(1), uint64(0))
	f.Add(int64(2), uint64(0))
	f.Add(int64(3), uint64(5))
	f.Add(int64(17), uint64(1))
	f.Add(int64(42), uint64(99))
	f.Add(int64(1000), uint64(0))
	f.Add(int64(-7), uint64(31))

	f.Fuzz(func(t *testing.T, seed int64, crashSel uint64) {
		c := DeriveCase(seed)
		if crashSel != 0 {
			c.CrashIdx = int(crashSel % uint64(len(c.Trace)+1))
		}
		res := Check(c)
		if res.Failed() {
			t.Fatalf("\n%s", res)
		}
	})
}

// FuzzParallelRecovery fuzzes the serial-vs-parallel recovery
// differential on its own:
//
//	go test -fuzz=FuzzParallelRecovery -fuzztime=30s ./internal/crashfuzz
//
// It explores the same (seed, crash selector) space as
// FuzzCrashRecovery, but each input runs only the seed's derived scheme
// on one controller, recovered serially and at every worker count from
// 1 to 8. Skipping the rest of the matrix buys many more executions per
// second for the recovery engine.
func FuzzParallelRecovery(f *testing.F) {
	f.Add(int64(1), uint64(0))
	f.Add(int64(42), uint64(3))
	f.Add(int64(-7), uint64(8))

	f.Fuzz(func(t *testing.T, seed int64, crashSel uint64) {
		c := DeriveCase(seed)
		if crashSel != 0 {
			c.CrashIdx = int(crashSel % uint64(len(c.Trace)+1))
		}
		if res := Check(recoveryOnly(c, 1)); res.Failed() {
			t.Fatalf("\n%s", res)
		}
	})
}

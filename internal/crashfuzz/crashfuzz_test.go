package crashfuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestDeriveCaseIsPure pins the determinism contract: the same seed must
// expand to the identical case — trace, configuration, schemes, and
// crash point (including the adversarially profiled one) — every time.
func TestDeriveCaseIsPure(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		a, b := DeriveCase(seed), DeriveCase(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d derived two different cases", seed)
		}
	}
}

// TestReplayMatchesRun pins single-line reproduction: Replay(seed) gives
// the same verdict and report as the original Run(seed).
func TestReplayMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := Run(seed), Replay(seed)
		if a.Failed() != b.Failed() || a.String() != b.String() {
			t.Fatalf("seed %d not reproducible:\n%s\n%s", seed, a, b)
		}
	}
}

// TestSweepFindsNoViolations is the acceptance sweep: 200 seeds across
// both modes and both block sizes, each running its whole variant
// matrix (five schemes, parallel recovery at 1/2/4/8 workers, a pool
// crashing a shard subset), must recover every acknowledged block with
// every execution agreeing.
func TestSweepFindsNoViolations(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 12
	}
	sw := Sweep(1, n, 4)
	if sw.Failed() {
		t.Fatalf("\n%s", sw)
	}
	if sw.Cases != n {
		t.Fatalf("ran %d cases, want %d", sw.Cases, n)
	}
}

// TestModesAndShapesAreExercised guards the generator against silently
// collapsing: across a seed range both crash modes, both block sizes, a
// crash before the first op, every matrix scheme, every pool shard
// count, a partial crash mask and every recovery worker count must all
// appear.
func TestModesAndShapesAreExercised(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 200; seed++ {
		c := DeriveCase(seed)
		seen[c.Mode.String()] = true
		seen[fmt.Sprintf("%dB", c.BlockSize)] = true
		if c.CrashIdx == 0 {
			seen["crash-at-zero"] = true
		}
		for _, v := range c.Variants {
			seen[v.Scheme.String()] = true
			seen[fmt.Sprintf("shards=%d", v.Shards)] = true
			crashed := 0
			for _, down := range v.Crash {
				if down {
					crashed++
				}
			}
			if crashed < v.Shards {
				seen["partial-crash"] = true
			}
			for _, w := range v.Workers {
				seen[fmt.Sprintf("workers=%d", w)] = true
			}
		}
	}
	for _, name := range []string{
		"adversarial", "uniform", "128B", "256B", "crash-at-zero", "partial-crash",
		"thoth-wtsc", "thoth-wtbc", "baseline-strict", "anubis-ecc", "triad-relaxed-8",
		"shards=1", "shards=2", "shards=4", "shards=8", "shards=16",
		"workers=1", "workers=2", "workers=4", "workers=8",
	} {
		if !seen[name] {
			t.Errorf("generator never produced a %s case in 200 seeds", name)
		}
	}
}

// TestCrashBeforeFirstOp covers the empty-prefix edge: a system that
// crashes before any write must still recover (nothing to lose).
func TestCrashBeforeFirstOp(t *testing.T) {
	c := DeriveCase(1)
	c.CrashIdx = 0
	if res := Check(c); res.Failed() {
		t.Fatalf("\n%s", res)
	}
}

// TestCrashAfterLastOp covers the heaviest ADR drain: everything the
// trace wrote is still in flight through the WPQ/PCB at the crash.
func TestCrashAfterLastOp(t *testing.T) {
	c := DeriveCase(2)
	c.CrashIdx = len(c.Trace)
	if res := Check(c); res.Failed() {
		t.Fatalf("\n%s", res)
	}
}

// TestDifferentialAllSchemes runs one trace, crashed after its last op,
// under the whole matrix — every scheme on one controller and the
// seed's pool — cross-checking recovered contents.
func TestDifferentialAllSchemes(t *testing.T) {
	c := DeriveCase(7)
	c.CrashIdx = len(c.Trace)
	schemes := make(map[config.Scheme]bool)
	for _, v := range c.Variants {
		schemes[v.Scheme] = true
	}
	if len(schemes) != 5 {
		t.Fatalf("matrix runs %d schemes, want all 5", len(schemes))
	}
	if res := Check(c); res.Failed() {
		t.Fatalf("\n%s", res)
	}
}

// recoveryOnly narrows a case to at most n of its one-shard variants
// and recovers each at every worker count from 1 to 8, including the 3,
// 5, 6 and 7 that the matrix leaves out.
func recoveryOnly(c Case, n int) Case {
	var vs []Variant
	for _, v := range c.Variants {
		if v.Shards == 1 && len(vs) < n {
			v.Workers = []int{1, 2, 3, 4, 5, 6, 7, 8}
			vs = append(vs, v)
		}
	}
	c.Variants = vs
	return c
}

// TestParallelDiffCleanSeeds runs the serial-vs-parallel recovery
// differential over a handful of derived cases: every matrix scheme on
// one controller, recovered at every worker count from 1 to 8, must
// agree with the serial reference and read back the golden plaintext.
func TestParallelDiffCleanSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if res := Check(recoveryOnly(DeriveCase(seed), len(matrixSchemes))); res.Failed() {
			t.Fatalf("seed %d:\n%s", seed, res)
		}
	}
}

// TestCorruptionIsDetected pins the oracle itself: a case with a
// counter-region bit flip before the crash must fail (recovery detects
// the tamper), and the report must carry the reproduction line.
func TestCorruptionIsDetected(t *testing.T) {
	c := failingCase()
	res := Check(c)
	if !res.Failed() {
		t.Fatal("a tampered image must produce a violation")
	}
	if !strings.Contains(res.String(), "crashfuzz.Replay(") {
		t.Fatalf("failure report must include the reproduction line:\n%s", res)
	}
}

// failingCase builds a case that must fail: writes followed by a bit
// flip in the counter region, so recovery's root check trips. Its one
// variant is a single crashed controller checked at every worker count.
func failingCase() Case {
	c := Case{
		Seed:      424242,
		BlockSize: 128,
		PUBBlocks: 32,
		PCBSlots:  4,
		Variants: []Variant{
			{Scheme: config.ThothWTSC, Shards: 1, Crash: []bool{true}, Workers: matrixWorkers},
		},
	}
	for i := 0; i < 40; i++ {
		c.Trace = append(c.Trace, Op{Kind: OpWrite, Addr: int64(i%9) * 128, Len: 128, Fill: byte(i)})
	}
	c.Trace = append(c.Trace, Op{Kind: OpCorrupt, Addr: 0})
	for i := 0; i < 8; i++ {
		c.Trace = append(c.Trace, Op{Kind: OpWrite, Addr: int64(i) * 4096, Len: 128, Fill: 0xEE})
	}
	c.CrashIdx = len(c.Trace)
	return c
}

// poolTamperCase is failingCase on a 4-shard pool of which only shard 0
// crashes: the flip lands in shard 0's counter region, found through the
// per-shard configuration, and survives because shard 0 skips the
// clean shutdown's metadata write-back.
func poolTamperCase() Case {
	c := failingCase()
	c.Variants = []Variant{
		{Scheme: config.ThothWTSC, Shards: 4, Crash: []bool{true, false, false, false}, Workers: matrixWorkers},
	}
	return c
}

// TestTamperFailsIdentically pins error-path parity inside the oracle:
// a tampered image makes serial and parallel recovery fail with the
// same sentinel at every worker count, on one controller and on a pool,
// so the case fails with VRecoveryError and never VDiverge.
func TestTamperFailsIdentically(t *testing.T) {
	for _, c := range []Case{failingCase(), poolTamperCase()} {
		assertOnlyRecoveryErrors(t, Check(c))
	}
}

// assertOnlyRecoveryErrors requires a failed result whose every
// violation is a VRecoveryError.
func assertOnlyRecoveryErrors(t *testing.T, res *Result) {
	t.Helper()
	if !res.Failed() {
		t.Fatalf("a tampered image must fail:\n%s", res)
	}
	for _, v := range res.Violations {
		if v.Kind != VRecoveryError {
			t.Fatalf("want only %s violations:\n%s", VRecoveryError, res)
		}
	}
}

// TestMinimizeShrinksFailingTrace pins the minimizer: the 49-op failing
// trace must shrink to (close to) the single corrupting op while still
// failing, and the corrupt op must survive minimization — on one
// controller and on a pool.
func TestMinimizeShrinksFailingTrace(t *testing.T) {
	for _, c := range []Case{failingCase(), poolTamperCase()} {
		min := Minimize(c)
		assertOnlyRecoveryErrors(t, Check(min))
		if len(min.Trace) > 3 {
			t.Fatalf("%s: minimized to %d ops, want <= 3", c.Variants[0], len(min.Trace))
		}
		var hasCorrupt bool
		for _, op := range min.Trace {
			if op.Kind == OpCorrupt {
				hasCorrupt = true
			}
		}
		if !hasCorrupt {
			t.Fatalf("%s: minimization dropped the corrupting op: %+v", c.Variants[0], min.Trace)
		}
	}
}

// TestMinimizePassingCaseIsIdentity documents that Minimize refuses to
// touch a case that does not fail.
func TestMinimizePassingCaseIsIdentity(t *testing.T) {
	c := DeriveCase(3)
	if got := Minimize(c); !reflect.DeepEqual(got, c) {
		t.Fatal("Minimize must return passing cases unchanged")
	}
}

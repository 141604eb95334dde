package loadgen_test

// The closed-loop differential: a 1-tenant, constant-arrival,
// zero-think-time scenario degenerates the open loop into a closed loop
// (every op arrives "immediately": the arrival never leads the clock),
// so driving a bare controller through the loadgen target must be
// byte- and cycle-identical to calling thoth.System — a one-shard
// engine.Pool, with its routing, locks and checks — on the same op
// stream: identical crash images, bit-equal statistics.
// Run over 50 crashfuzz-derived machines so the equivalence holds
// across block sizes, PUB capacities and cache pressure, then again
// over the crashfuzz traces themselves to cover unaligned partial
// blocks and multi-block spans.

import (
	"bytes"
	"testing"

	thoth "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashfuzz"
	"repro/internal/loadgen"
)

// imageBytes serializes a crashed device image.
func imageBytes(t *testing.T, dev *thoth.Device) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := dev.Save(&b); err != nil {
		t.Fatalf("save image: %v", err)
	}
	return b.Bytes()
}

// diffSeeds is the crashfuzz seed range both stages sweep.
const diffSeeds = 50

// closedLoopScenario is the degenerate open-loop scenario for one seed.
func closedLoopScenario(seed int64) loadgen.Scenario {
	return loadgen.Scenario{
		Name:        "closed-loop-diff",
		Arrival:     loadgen.ArrivalSpec{Kind: loadgen.ArriveConstant, MeanCycles: 0},
		Keys:        loadgen.KeySpec{Kind: loadgen.KeysUniform},
		ReadPercent: 30,
		Tenants:     1,
		Ops:         120,
		Seed:        seed,
	}
}

// runPair drives the same op application against a loadgen
// ControllerTarget and a thoth.System built from the same config, then
// compares crash images byte for byte and statistics bit for bit.
// apply runs the workload against both.
func runPair(t *testing.T, seed int64, cfg config.Config,
	apply func(tgt *loadgen.ControllerTarget, sys *thoth.System)) {
	t.Helper()
	ctl, err := core.New(cfg)
	if err != nil {
		t.Fatalf("seed %d: core.New: %v", seed, err)
	}
	tgt := loadgen.NewControllerTarget(ctl)
	sys, err := thoth.New(cfg)
	if err != nil {
		t.Fatalf("seed %d: thoth.New: %v", seed, err)
	}

	apply(tgt, sys)

	tgtStats, sysStats := tgt.Stats(), sys.Stats()
	if tgtStats != sysStats {
		t.Fatalf("seed %d: stats diverge:\nopen-loop:  %+v\nclosed-loop: %+v", seed, tgtStats, sysStats)
	}
	if err := ctl.Crash(tgt.Now()); err != nil {
		t.Fatalf("seed %d: target crash: %v", seed, err)
	}
	sysDev, err := sys.Crash()
	if err != nil {
		t.Fatalf("seed %d: system crash: %v", seed, err)
	}
	if !bytes.Equal(imageBytes(t, ctl.Device()), imageBytes(t, sysDev)) {
		t.Fatalf("seed %d: crash device images differ", seed)
	}
}

// TestClosedLoopDifferentialGenerated sweeps generated zero-think-time
// scenarios over 50 crashfuzz machine configurations.
func TestClosedLoopDifferentialGenerated(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		c := crashfuzz.DeriveCase(seed)
		cfg := c.ConfigFor(c.Variants[0].Scheme)
		scn := closedLoopScenario(seed)
		runPair(t, seed, cfg, func(tgt *loadgen.ControllerTarget, sys *thoth.System) {
			d, err := loadgen.NewDriver(scn, tgt, cfg, nil, loadgen.Options{CollectOps: true})
			if err != nil {
				t.Fatalf("seed %d: NewDriver: %v", seed, err)
			}
			if err := d.Run(); err != nil {
				t.Fatalf("seed %d: driver run: %v", seed, err)
			}
			if d.MinLatency() < 0 {
				t.Fatalf("seed %d: negative open-loop latency %d", seed, d.MinLatency())
			}
			buf := make([]byte, sys.BlockSize())
			for _, op := range d.Ops() {
				if op.Kind == loadgen.OpWrite {
					loadgen.FillPayload(buf[:op.Len], op.Seq, op.Addr)
					if err := sys.Write(op.Addr, buf[:op.Len]); err != nil {
						t.Fatalf("seed %d: system write: %v", seed, err)
					}
				} else if _, err := sys.Read(op.Addr, op.Len); err != nil {
					t.Fatalf("seed %d: system read: %v", seed, err)
				}
			}
		})
	}
}

// TestClosedLoopDifferentialTraces replays the crashfuzz traces
// themselves (executed prefix only) through the open-loop target with
// every arrival at cycle 0 — unaligned partial blocks and multi-block
// spans take the same read-modify-write path through the bare target as
// through System.Write.
func TestClosedLoopDifferentialTraces(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		c := crashfuzz.DeriveCase(seed)
		cfg := c.ConfigFor(c.Variants[0].Scheme)
		runPair(t, seed, cfg, func(tgt *loadgen.ControllerTarget, sys *thoth.System) {
			for i, op := range c.Trace[:c.CrashIdx] {
				switch op.Kind {
				case crashfuzz.OpWrite:
					b := make([]byte, op.Len)
					for j := range b {
						b[j] = op.Fill ^ byte(j*7) ^ byte(op.Addr>>7)
					}
					if _, err := tgt.Write(0, op.Addr, b); err != nil {
						t.Fatalf("seed %d op %d: target write: %v", seed, i, err)
					}
					if err := sys.Write(op.Addr, b); err != nil {
						t.Fatalf("seed %d op %d: system write: %v", seed, i, err)
					}
				case crashfuzz.OpRead:
					dst := make([]byte, op.Len)
					if _, err := tgt.Read(0, op.Addr, dst); err != nil {
						t.Fatalf("seed %d op %d: target read: %v", seed, i, err)
					}
					want, err := sys.Read(op.Addr, op.Len)
					if err != nil {
						t.Fatalf("seed %d op %d: system read: %v", seed, i, err)
					}
					if !bytes.Equal(dst, want) {
						t.Fatalf("seed %d op %d: read payloads differ", seed, i)
					}
				}
			}
		})
	}
}

package loadgen_test

// The golden record against its reference: the driver keeps only each
// block's last-write sequence number and rebuilds payloads on demand, so
// a recording target wrapper keeps what the record must equal — a copy
// of the bytes of every write the inner target acknowledged — across
// every scenario, a single controller, a sharded pool, a crash and
// recovery mid-run, and a write the target rejects.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashfuzz"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/recovery"
)

// errRejected is the recording target's refusal of a write.
var errRejected = errors.New("write rejected")

// refGolden forwards to an inner target and copies the bytes of every
// write the inner target acknowledges into acked. When rejectRewrite is
// set it refuses, once, the first write to a block it has already
// acknowledged, and remembers that block in rejected.
type refGolden struct {
	loadgen.Target
	acked         map[int64][]byte
	rejectRewrite bool
	rejected      int64
	rejectedData  []byte
}

func newRefGolden(inner loadgen.Target) *refGolden {
	return &refGolden{Target: inner, acked: make(map[int64][]byte), rejected: -1}
}

func (r *refGolden) Write(arrival, addr int64, data []byte) (int64, error) {
	if _, ok := r.acked[addr]; ok && r.rejectRewrite && r.rejected < 0 {
		r.rejected = addr
		r.rejectedData = append([]byte(nil), data...)
		return arrival, errRejected
	}
	done, err := r.Target.Write(arrival, addr, data)
	if err == nil {
		r.acked[addr] = append([]byte(nil), data...)
	}
	return done, err
}

// checkGolden demands Golden() equal the reference: the same key set and
// the same bytes, on two calls (each returns its own map).
func checkGolden(t *testing.T, label string, d *loadgen.Driver, ref *refGolden) {
	t.Helper()
	for call := 0; call < 2; call++ {
		got := d.Golden()
		if len(got) != len(ref.acked) {
			t.Fatalf("%s: Golden has %d blocks, %d were acknowledged", label, len(got), len(ref.acked))
		}
		for addr, want := range ref.acked {
			if !bytes.Equal(got[addr], want) {
				t.Fatalf("%s: Golden block %#x differs from its last acknowledged write", label, addr)
			}
		}
		// Scribble on this call's map: the next call must not see it.
		for addr, g := range got {
			g[0] ^= 0xff
			delete(got, addr)
			break
		}
	}
}

// goldenScenario shrinks a matrix scenario to a few hundred ops.
func goldenScenario(s loadgen.Scenario, seed int64) loadgen.Scenario {
	s.Tenants = 8
	s.Ops = 400
	s.Seed = seed
	return s
}

func TestGoldenMatchesAcknowledgedWrites(t *testing.T) {
	c := crashfuzz.DeriveCase(7)
	cfg := c.ConfigFor(config.ThothWTSC)
	for i, s := range loadgen.Scenarios() {
		scn := goldenScenario(s, int64(i+1))

		t.Run(s.Name+"/controller", func(t *testing.T) {
			ctl, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGolden(loadgen.NewControllerTarget(ctl))
			d, err := loadgen.NewDriver(scn, ref, cfg, nil, loadgen.Options{TrackGolden: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "controller", d, ref)
		})

		t.Run(s.Name+"/pool-crash", func(t *testing.T) {
			const shards = 4
			pool, err := engine.New(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGolden(loadgen.NewPoolTarget(pool))
			d, err := loadgen.NewDriver(scn, ref, cfg, nil, loadgen.Options{TrackGolden: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.RunOps(scn.Ops / 2); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "pool before crash", d, ref)

			img, err := pool.CrashShards([]bool{true, false, true, false})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.RecoverPool(cfg, shards, img, recovery.RecoverOpts{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			pool2, err := engine.Open(cfg, shards, img)
			if err != nil {
				t.Fatal(err)
			}
			defer pool2.Shutdown()
			ref.Target = loadgen.NewPoolTarget(pool2)
			if err := d.SetTarget(ref); err != nil {
				t.Fatal(err)
			}
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "pool after recovery", d, ref)
		})
	}

	// A write the target refuses is not recorded: its block keeps the
	// payload of its last acknowledged write, and the run goes on.
	t.Run("rejected-write", func(t *testing.T) {
		ctl, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scn := goldenScenario(loadgen.Scenarios()[2], 3) // hotkey: rewrites come early
		ref := newRefGolden(loadgen.NewControllerTarget(ctl))
		ref.rejectRewrite = true
		d, err := loadgen.NewDriver(scn, ref, cfg, nil, loadgen.Options{TrackGolden: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); !errors.Is(err, errRejected) {
			t.Fatalf("Run = %v, want the rejected write's error", err)
		}
		checkGolden(t, "after rejection", d, ref)
		if got := d.Golden()[ref.rejected]; bytes.Equal(got, ref.rejectedData) {
			t.Fatalf("block %#x holds the rejected payload", ref.rejected)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "after the rest of the run", d, ref)
	})
}

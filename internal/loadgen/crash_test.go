package loadgen_test

// Crash-under-load: run an open-loop scenario over a sharded pool,
// crash a subset of shards mid-scenario, recover, reopen, and resume
// the SAME driver against the reopened pool. Recovery must preserve
// every acknowledged write (golden parity), and the latency pipeline
// must come through clean: no negative latency deltas (completions
// never precede arrivals even though shard clocks restart at zero) and
// per-tenant histogram counts strictly monotone across the boundary.

import (
	"bytes"
	"testing"

	"repro/internal/crashfuzz"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/recovery"
)

func TestCrashUnderLoad(t *testing.T) {
	c := crashfuzz.DeriveCase(3)
	cfg := c.ConfigFor(c.Variants[0].Scheme)
	const shards = 4

	pool, err := engine.New(cfg, shards)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	scn := loadgen.Scenario{
		Name:        "crash-under-load",
		Arrival:     loadgen.ArrivalSpec{Kind: loadgen.ArrivePoisson, MeanCycles: 4000},
		Keys:        loadgen.KeySpec{Kind: loadgen.KeysUniform},
		ReadPercent: 30,
		Tenants:     8,
		Ops:         600,
		Seed:        5,
	}
	d, err := loadgen.NewDriver(scn, loadgen.NewPoolTarget(pool), cfg, nil,
		loadgen.Options{TrackGolden: true, RecordLatencies: true})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}

	n, err := d.RunOps(300)
	if err != nil || n != 300 {
		t.Fatalf("first half ran %d ops, err %v", n, err)
	}
	opsBefore := d.TenantOps()

	// Crash half the shards mid-scenario; the survivors shut down clean.
	crash := make([]bool, shards)
	for i := 0; i < shards; i += 2 {
		crash[i] = true
	}
	img, err := pool.CrashShards(crash)
	if err != nil {
		t.Fatalf("CrashShards: %v", err)
	}
	if _, err := engine.RecoverPool(cfg, shards, img, recovery.RecoverOpts{Workers: 2}); err != nil {
		t.Fatalf("RecoverPool: %v", err)
	}
	pool2, err := engine.Open(cfg, shards, img)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pool2.Shutdown()

	// Every write acknowledged before the crash survived it.
	for addr, want := range d.Golden() {
		got, err := pool2.Read(addr, len(want))
		if err != nil {
			t.Fatalf("post-recovery read %#x: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %#x lost across crash (got %x... want %x...)", addr, got[:8], want[:8])
		}
	}

	// Resume the same driver — schedules, histograms and goldens intact.
	if err := d.SetTarget(loadgen.NewPoolTarget(pool2)); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	m, err := d.RunOps(300)
	if err != nil || m != 300 {
		t.Fatalf("second half ran %d ops, err %v", m, err)
	}

	// Latency pipeline is clean across the boundary: no negative deltas,
	// per-tenant counts monotone, histograms consistent with the exact
	// recomputation.
	if min := d.MinLatency(); min < 0 {
		t.Fatalf("negative open-loop latency %d across recovery", min)
	}
	opsAfter := d.TenantOps()
	var total int64
	for i := range opsAfter {
		if opsAfter[i] < opsBefore[i] {
			t.Fatalf("tenant %d op count shrank across recovery: %d -> %d", i, opsBefore[i], opsAfter[i])
		}
		total += opsAfter[i]
	}
	if total != 600 {
		t.Fatalf("tenant op counts sum to %d, want 600", total)
	}
	if err := d.CheckQuantiles(); err != nil {
		t.Fatalf("post-recovery quantiles: %v", err)
	}

	// The resumed run's writes are readable too.
	for addr, want := range d.Golden() {
		got, err := pool2.Read(addr, len(want))
		if err != nil {
			t.Fatalf("final read %#x: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %#x diverges after resumed run", addr)
		}
	}
}

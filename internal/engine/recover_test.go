package engine

import (
	"testing"

	"repro/internal/config"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
)

// TestRecoverPoolTraceReproducible recovers clones of one crashed
// 4-shard pool five times under a tracer, at 1 and 2 workers per shard.
// Every run must emit the same events: each crashed shard's own
// RecoverParallel trace, concatenated in shard order, whichever shard
// finishes first.
func TestRecoverPoolTraceReproducible(t *testing.T) {
	const shards = 4
	cfg := testConfig(128, 4096).WithScheme(config.ThothWTSC)
	cfg.MemBytes = 64 << 20
	p, err := New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cfg.BlockSize)
	for i := int64(0); i < 3000; i++ {
		data[0], data[1] = byte(i), byte(i>>8)
		if err := p.Write(i*int64(cfg.PageBytes)%p.DataSize(), data); err != nil {
			t.Fatal(err)
		}
	}
	img, err := p.Crash()
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *PoolImage {
		c := *img
		c.Devices = make([]*nvm.Device, shards)
		for i, d := range img.Devices {
			c.Devices[i] = d.Clone()
		}
		return &c
	}
	scfg, err := ShardConfig(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		opts := recovery.RecoverOpts{Workers: workers}
		var want []obs.Event
		for i, dev := range img.Devices {
			if !img.Crashed[i] {
				continue
			}
			icfg := scfg
			icfg.Tracer = obs.Func(func(e obs.Event) { want = append(want, e) })
			if _, err := recovery.RecoverParallel(icfg, dev.Clone(), opts); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		for run := 0; run < 5; run++ {
			var got []obs.Event
			tcfg := cfg
			tcfg.Tracer = obs.Func(func(e obs.Event) { got = append(got, e) })
			if _, err := RecoverPool(tcfg, shards, clone(), opts); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d run %d: %d events, want %d", workers, run, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d run %d: event %d is %+v, want %+v", workers, run, i, got[i], want[i])
				}
			}
		}
	}
}

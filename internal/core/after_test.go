package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/stats"
)

func afterConfig() config.Config {
	cfg := testConfig(config.ThothWTSC)
	cfg.PCBAfterWPQ = true
	// Large enough metadata caches that natural evictions do not muddy
	// the issue-time accounting these tests assert on.
	cfg.CtrCacheBytes = 64 << 10
	cfg.MACCacheBytes = 64 << 10
	return cfg
}

func TestAfterModeRoundTrip(t *testing.T) {
	c := mustNew(t, afterConfig())
	want := blockOf(c, 0x9C)
	done := c.PersistBlock(0, 4096, want)
	_, got := c.ReadBlock(done, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("read-after-persist mismatch in PCB-after-WPQ mode")
	}
}

func TestAfterModeDivertsLightBlocks(t *testing.T) {
	// Distinct pages: each metadata block gets one partial update, well
	// under the divert threshold, so metadata writes must be rare and
	// PCB/PUB traffic must exist.
	c := mustNew(t, afterConfig())
	var now int64
	for i := int64(0); i < 400; i++ {
		now = c.PersistBlock(now, i*int64(c.cfg.PageBytes), blockOf(c, byte(i)))
	}
	st := c.Stats()
	if st.Writes(stats.WritePCB) == 0 {
		t.Fatalf("diverted partials must reach the PUB: %s", st)
	}
	metadata := st.Writes(stats.WriteCounter) + st.Writes(stats.WriteMAC)
	if metadata >= 400 {
		t.Fatalf("lightly-updated blocks must divert, not persist in full (%d metadata writes)", metadata)
	}
}

func TestAfterModePersistsHeavyBlocks(t *testing.T) {
	// Hammer every block of just two pages: each counter block
	// accumulates many partials before its WPQ entry reaches the head of
	// the queue, exceeding the divert threshold -> full persists happen.
	c := mustNew(t, afterConfig())
	var now int64
	for round := 0; round < 10; round++ {
		for blk := int64(0); blk < 32; blk++ {
			for page := int64(0); page < 2; page++ {
				addr := page*int64(c.cfg.PageBytes) + blk*int64(c.cfg.BlockSize)
				now = c.PersistBlock(now, addr, blockOf(c, byte(round)))
			}
		}
	}
	st := c.Stats()
	if st.Writes(stats.WriteCounter) == 0 {
		t.Fatalf("heavily-updated counter blocks must persist in full: %s", st)
	}
}

func TestAfterModeCrashInvariant(t *testing.T) {
	cfg := afterConfig()
	cfg.PUBBytes = 16 << 10
	c := mustNew(t, cfg)
	var now int64
	for i := int64(0); i < 600; i++ {
		now = c.PersistBlock(now, (i%29)*4096, blockOf(c, byte(i)))
		if i%53 == 0 {
			if err := c.VerifyCrashConsistency(); err != nil {
				t.Fatalf("after persist %d: %v", i, err)
			}
		}
	}
	if err := c.VerifyCrashConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Property: the recovery-sufficiency invariant holds under After mode
// for arbitrary persist interleavings (full crash+recovery round trips
// are covered in internal/recovery).
func TestAfterModeInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := afterConfig()
		c, err := New(cfg)
		if err != nil {
			return false
		}
		var now int64
		for i, op := range ops {
			addr := int64(op%37) * 4096
			now = c.PersistBlock(now, addr, blockOf(c, byte(i)))
		}
		return c.VerifyCrashConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAfterAndBeforeModesAgreeFunctionally(t *testing.T) {
	run := func(after bool) *Controller {
		cfg := testConfig(config.ThothWTSC)
		cfg.PCBAfterWPQ = after
		c := mustNew(t, cfg)
		var now int64
		for i := int64(0); i < 300; i++ {
			now = c.PersistBlock(now, (i%23)*4096, blockOf(c, byte(i%23)+byte(i/23)))
		}
		return c
	}
	before := run(false)
	afterC := run(true)
	for i := int64(0); i < 23; i++ {
		_, a := before.ReadBlock(1<<40, i*4096)
		_, b := afterC.ReadBlock(1<<40, i*4096)
		if !bytes.Equal(a, b) {
			t.Fatalf("arrangements diverge at block %d", i)
		}
	}
}

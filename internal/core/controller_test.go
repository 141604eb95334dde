package core

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// testConfig returns a small configuration that keeps tests fast: modest
// module, small PUB (so eviction paths are exercised), tiny metadata
// caches (so natural evictions happen).
func testConfig(s config.Scheme) config.Config {
	cfg := config.Default().WithScheme(s)
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = 16 << 10 // 128 blocks of 128B
	cfg.CtrCacheBytes = 4 << 10
	cfg.MACCacheBytes = 8 << 10
	cfg.MTCacheBytes = 16 << 10
	return cfg
}

func mustNew(t *testing.T, cfg config.Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func blockOf(c *Controller, tag byte) []byte {
	b := make([]byte, c.cfg.BlockSize)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

func TestPersistThenReadRoundTrip(t *testing.T) {
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC, config.ThothWTBC, config.AnubisECC} {
		t.Run(s.String(), func(t *testing.T) {
			c := mustNew(t, testConfig(s))
			want := blockOf(c, 0x5A)
			done := c.PersistBlock(0, 4096, want)
			if done <= 0 {
				t.Fatal("persist must take time")
			}
			_, got := c.ReadBlock(done, 4096)
			if !bytes.Equal(got, want) {
				t.Fatal("read-after-persist mismatch")
			}
		})
	}
}

func TestCiphertextIsEncrypted(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	plain := blockOf(c, 0x11)
	c.PersistBlock(0, 0, plain)
	if bytes.Equal(c.Device().Peek(0), plain) {
		t.Fatal("device must hold ciphertext, not plaintext")
	}
}

func TestBaselineStrictWritesMetadataPerPersist(t *testing.T) {
	c := mustNew(t, testConfig(config.BaselineStrict))
	var now int64
	// Distinct pages so no WPQ coalescing of metadata can hide writes.
	for i := int64(0); i < 10; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	st := c.Stats()
	if st.Writes(stats.WriteData) != 10 {
		t.Fatalf("data writes = %d, want 10", st.Writes(stats.WriteData))
	}
	if st.Writes(stats.WriteCounter) != 10 || st.Writes(stats.WriteMAC) != 10 {
		t.Fatalf("ctr/mac writes = %d/%d, want 10/10 (strict persistence)",
			st.Writes(stats.WriteCounter), st.Writes(stats.WriteMAC))
	}
}

func TestBaselineCoalescesInWPQ(t *testing.T) {
	c := mustNew(t, testConfig(config.BaselineStrict))
	// Writes to the same page in rapid succession share counter and MAC
	// blocks; the WPQ coalesces them below the drain threshold.
	var now int64
	for i := int64(0); i < 4; i++ {
		now = c.PersistBlock(now, i*int64(c.cfg.BlockSize), blockOf(c, byte(i)))
	}
	st := c.Stats()
	if st.Writes(stats.WriteCounter) >= 4 {
		t.Fatalf("counter writes = %d, want <4 (WPQ coalescing)", st.Writes(stats.WriteCounter))
	}
}

func TestThothAvoidsPerWriteMetadataPersists(t *testing.T) {
	base := mustNew(t, testConfig(config.BaselineStrict))
	th := mustNew(t, testConfig(config.ThothWTSC))
	var tb, tt int64
	for i := int64(0); i < 200; i++ {
		addr := (i % 50) * 4096
		tb = base.PersistBlock(tb, addr, blockOf(base, byte(i)))
		tt = th.PersistBlock(tt, addr, blockOf(th, byte(i)))
	}
	bw := base.Stats().TotalWrites()
	tw := th.Stats().TotalWrites()
	if tw >= bw {
		t.Fatalf("Thoth writes (%d) must be below baseline (%d)", tw, bw)
	}
	// Thoth must have produced PCB (PUB) writes instead.
	if th.Stats().Writes(stats.WritePCB) == 0 {
		t.Fatal("Thoth run produced no PCB->PUB writes")
	}
}

func TestThothPCBCoalescesRepeatedBlockWrites(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	var now int64
	for i := 0; i < 8; i++ {
		now = c.PersistBlock(now, 4096, blockOf(c, byte(i)))
	}
	if c.Stats().PCBMerged == 0 {
		t.Fatal("repeated writes to one block must merge in the PCB")
	}
}

func TestAnubisECCWritesOnlyData(t *testing.T) {
	cfg := testConfig(config.AnubisECC)
	// Large metadata caches: no natural evictions in this short run.
	cfg.CtrCacheBytes = 64 << 10
	cfg.MACCacheBytes = 128 << 10
	c := mustNew(t, cfg)
	var now int64
	for i := int64(0); i < 20; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	st := c.Stats()
	if st.Writes(stats.WriteCounter) != 0 || st.Writes(stats.WriteMAC) != 0 {
		t.Fatalf("AnubisECC must not persist metadata separately (ctr=%d mac=%d)",
			st.Writes(stats.WriteCounter), st.Writes(stats.WriteMAC))
	}
	if st.Writes(stats.WriteData) != 20 {
		t.Fatalf("data writes = %d, want 20", st.Writes(stats.WriteData))
	}
}

func TestNaturalEvictionPersistsDirtyMetadata(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.CtrCacheBytes = 2 * cfg.BlockSize // 2-line counter cache
	cfg.CtrCacheWays = 1
	c := mustNew(t, cfg)
	var now int64
	// Touch many pages: counter lines must be evicted dirty and written.
	for i := int64(0); i < 20; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	if c.Stats().Writes(stats.WriteCounter) == 0 {
		t.Fatal("dirty counter-cache evictions must persist counter blocks")
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	// Two blocks in the same page; hammer one past the 7-bit minor.
	other := blockOf(c, 0x77)
	c.PersistBlock(0, 4096+int64(c.cfg.BlockSize), other)
	var now int64 = 1 << 20
	for i := 0; i < 130; i++ {
		now = c.PersistBlock(now, 4096, blockOf(c, byte(i)))
	}
	if c.Stats().CtrOverflows == 0 {
		t.Fatal("130 writes to one block must overflow the 7-bit minor")
	}
	// Both blocks must still decrypt correctly after re-encryption.
	_, got := c.ReadBlock(now, 4096+int64(c.cfg.BlockSize))
	if !bytes.Equal(got, other) {
		t.Fatal("sibling block corrupted by page re-encryption")
	}
	_, got = c.ReadBlock(now, 4096)
	if !bytes.Equal(got, blockOf(c, 129)) {
		t.Fatal("hammered block corrupted after overflow")
	}
}

func TestPersistTimesAreMonotone(t *testing.T) {
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
		c := mustNew(t, testConfig(s))
		var now int64
		for i := int64(0); i < 300; i++ {
			done := c.PersistBlock(now, (i%37)*int64(c.cfg.BlockSize)*3, blockOf(c, byte(i)))
			if done < now {
				t.Fatalf("%v: time went backwards (%d -> %d)", s, now, done)
			}
			now = done
		}
	}
}

func TestRootChangesWithEveryPersist(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	seen := map[uint64]bool{}
	var now int64
	for i := int64(0); i < 10; i++ {
		now = c.PersistBlock(now, i*int64(c.cfg.BlockSize), blockOf(c, byte(i)))
		if seen[c.Root()] {
			t.Fatal("tree root repeated across distinct persists")
		}
		seen[c.Root()] = true
	}
}

func TestPUBEvictionFiresAboveThreshold(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 8 * int64(cfg.BlockSize) // 8-block ring
	cfg.PCBEntries = 2
	c := mustNew(t, cfg)
	var now int64
	// Each persist of a distinct page adds one partial; the lazy PCB
	// posts past its watermark; push enough blocks to cross the ring's
	// eviction threshold too.
	for i := int64(0); i < 9*30; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	st := c.Stats()
	if st.PUBEvictions == 0 {
		t.Fatal("ring above threshold must trigger evictions")
	}
	if st.TotalEvicts() != st.PUBEntryEvictions*2 {
		t.Fatalf("classified outcomes (%d) must be 2x entry evictions (%d)",
			st.TotalEvicts(), st.PUBEntryEvictions)
	}
}

func TestWTSCAndWTBCAgreeFunctionally(t *testing.T) {
	// Both policies must preserve read-your-writes for any pattern; WTBC
	// may persist fewer blocks but never corrupts state.
	mkRun := func(s config.Scheme) *Controller {
		cfg := testConfig(s)
		cfg.PUBBytes = 8 * int64(cfg.BlockSize)
		cfg.PCBEntries = 2
		c := mustNew(t, cfg)
		var now int64
		for i := int64(0); i < 200; i++ {
			addr := (i % 23) * 4096
			now = c.PersistBlock(now, addr, blockOf(c, byte(i%23)+byte(i/23)))
		}
		return c
	}
	wtsc := mkRun(config.ThothWTSC)
	wtbc := mkRun(config.ThothWTBC)
	for i := int64(0); i < 23; i++ {
		addr := i * 4096
		_, a := wtsc.ReadBlock(1<<40, addr)
		_, b := wtbc.ReadBlock(1<<40, addr)
		if !bytes.Equal(a, b) {
			t.Fatalf("policies diverge at %#x", addr)
		}
	}
	// WTBC is precise: it must not write back more metadata at eviction
	// time than WTSC (which is conservative).
	sc := wtsc.Stats().Writes(stats.WriteCounter) + wtsc.Stats().Writes(stats.WriteMAC)
	bc := wtbc.Stats().Writes(stats.WriteCounter) + wtbc.Stats().Writes(stats.WriteMAC)
	if bc > sc {
		t.Fatalf("WTBC persisted more metadata (%d) than WTSC (%d)", bc, sc)
	}
}

func TestControllerDeadAfterCrash(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	c.PersistBlock(0, 0, blockOf(c, 1))
	c.Crash(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("use after crash must panic")
		}
	}()
	c.PersistBlock(2000, 0, blockOf(c, 2))
}

func TestCrashPersistsRootAndRingBounds(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	var now int64
	for i := int64(0); i < 30; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	root := c.Root()
	if err := c.Crash(now); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRoot(c.cfg.BlockSize, c.lay.CtlBase, c.Device().Peek)
	if err != nil {
		t.Fatalf("LoadRoot: %v", err)
	}
	if got != root {
		t.Fatalf("persisted root %#x, want %#x", got, root)
	}
}

func TestShutdownLeavesConsistentImage(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	c := mustNew(t, cfg)
	want := map[int64][]byte{}
	var now int64
	for i := int64(0); i < 40; i++ {
		addr := i * 4096
		data := blockOf(c, byte(i)^0x3C)
		now = c.PersistBlock(now, addr, data)
		want[addr] = data
	}
	if _, err := c.Shutdown(now); err != nil {
		t.Fatal(err)
	}

	// A fresh controller attached to the image must read everything back
	// with full verification, no recovery needed.
	c2, err := Attach(cfg, c.Device())
	if err != nil {
		t.Fatal(err)
	}
	for addr, data := range want {
		_, got := c2.ReadBlock(0, addr)
		if !bytes.Equal(got, data) {
			t.Fatalf("block %#x corrupted across clean shutdown", addr)
		}
	}
}

func TestPrefillPUB(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 64 * int64(cfg.BlockSize)
	c := mustNew(t, cfg)
	if err := c.PrefillPUB(); err != nil {
		t.Fatalf("prefill on empty PUB must be a no-op, got %v", err)
	}
	if c.PUBOccupancy() != 0 {
		t.Fatal("empty prefill must not add blocks")
	}
	var now int64
	for i := int64(0); i < 9*8; i++ { // enough blocks to post past the watermark
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	if err := c.PrefillPUB(); err != nil {
		t.Fatal(err)
	}
	if c.PUBOccupancy() < cfg.PUBEvictFraction-0.02 {
		t.Fatalf("occupancy = %.2f after prefill, want >= %.2f",
			c.PUBOccupancy(), cfg.PUBEvictFraction)
	}
	// Baseline has no PUB.
	b := mustNew(t, testConfig(config.BaselineStrict))
	if err := b.PrefillPUB(); err == nil {
		t.Fatal("prefill on baseline must fail")
	}
}

func TestResetStats(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	var now int64
	for i := int64(0); i < 20; i++ {
		now = c.PersistBlock(now, i*4096, blockOf(c, byte(i)))
	}
	c.ResetStats()
	if got := *c.Stats(); got != (stats.Stats{}) || c.Device().TotalWrites() != 0 {
		t.Fatalf("ResetStats must zero all counters: %+v, device writes %d", got, c.Device().TotalWrites())
	}
	// The controller still works after a reset.
	c.PersistBlock(now, 0, blockOf(c, 1))
	if c.Stats().TotalWrites() == 0 {
		t.Fatal("stats must accumulate after reset")
	}
}

func TestReadDetectsTamperedCiphertext(t *testing.T) {
	c := mustNew(t, testConfig(config.BaselineStrict))
	done := c.PersistBlock(0, 8192, blockOf(c, 0x42))
	// Adversary flips a ciphertext bit in NVM.
	evil := c.Device().Peek(8192)
	evil[0] ^= 1
	c.Device().WriteBlock(8192, evil)
	defer func() {
		if recover() == nil {
			t.Fatal("tampered ciphertext must fail MAC verification")
		}
	}()
	c.ReadBlock(done, 8192)
}

// TestStatsCountWithoutSync checks that the WPQ and the PCB count
// straight into the controller's ledger: Thoth WTSC runs that coalesce,
// stall and issue in the WPQ and merge in the PCB show each of those
// counts in *Stats() with nothing copied into it first, under both PCB
// arrangements. A queue issues by watermark only when its drain
// watermark is below its capacity, and by stall only when the two are
// equal, so each arrangement runs at both drain fractions.
func TestStatsCountWithoutSync(t *testing.T) {
	for _, after := range []bool{false, true} {
		for _, frac := range []float64{0.5, 1} {
			cfg := testConfig(config.ThothWTSC)
			cfg.PCBAfterWPQ = after
			cfg.WPQDrainFraction = frac
			c := mustNew(t, cfg)
			var now int64
			for i := int64(0); i < 3000; i++ {
				// Bursts of 500 persists, one in four to 2 hot blocks
				// and the rest streaming over 120 others: hot writes
				// coalesce in the queue and merge in the PCB, the
				// stream outruns the banks, and the pause before each
				// burst ages the queue out.
				if i%500 == 0 {
					now += 50000
				}
				blk := i / 4 % 2
				if i%4 != 0 {
					blk = 8 + i*7%120
				}
				now = c.PersistBlock(now, blk*int64(cfg.BlockSize), blockOf(c, byte(i)))
			}
			st := c.Stats()
			by, issued := "WPQIssuedByWatermark", st.WPQIssuedByWatermark
			if frac == 1 {
				by, issued = "WPQIssuedByStall", st.WPQIssuedByStall
			}
			for name, n := range map[string]int64{
				"WPQCoalesced":   st.WPQCoalesced,
				"WPQStallCycles": st.WPQStallCycles,
				"WPQIssuedByAge": st.WPQIssuedByAge,
				by:               issued,
				"PCBMerged":      st.PCBMerged,
			} {
				if n == 0 {
					t.Errorf("PCBAfterWPQ=%v drain fraction %v: %s = 0 in the ledger: %+v", after, frac, name, *st)
				}
			}
		}
	}
}

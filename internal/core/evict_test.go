package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// evictConfig builds a Thoth machine with a 2-block PUB ring (evictions
// start at 1 block) and metadata caches large enough that lines stay
// resident — so tests control which Figure 3 outcome occurs.
func evictConfig() config.Config {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 8 * int64(cfg.BlockSize)
	cfg.PCBEntries = 2 // small PCB: posting starts after two blocks
	cfg.CtrCacheBytes = 64 << 10
	cfg.MACCacheBytes = 64 << 10
	return cfg
}

// persistPages persists one block in each of n consecutive pages
// starting at page start, returning the updated clock. Distinct pages
// mean distinct counter blocks, so nothing merges in the PCB.
func persistPages(c *Controller, now int64, start, n int64) int64 {
	for i := int64(0); i < n; i++ {
		addr := (start + i) * int64(c.cfg.PageBytes)
		now = c.PersistBlock(now, addr, blockOf(c, byte(i)))
	}
	return now
}

// pcbBlocksToPost returns how many distinct-page persists force the
// first PUB write: the lazy PCB posts only past its watermark.
func pcbBlocksToPost(c *Controller) int64 {
	return int64(c.cfg.PCBEntries/2+2) * int64(c.cfg.PartialsPerBlock())
}

func TestEvictClassifiesWrittenBack(t *testing.T) {
	// Fresh dirty metadata, no younger updates, lines still cached:
	// evictions must classify written-back and (WTSC) persist the blocks.
	c := mustNew(t, evictConfig())
	persistPages(c, 0, 0, 3*pcbBlocksToPost(c))
	st := c.Stats()
	if st.PUBEvictions == 0 {
		t.Fatal("test produced no evictions")
	}
	if st.Evicts(stats.EvictWrittenBack) == 0 {
		t.Fatalf("expected written-back outcomes, got: %s", st.String())
	}
	if st.Writes(stats.WriteCounter) == 0 || st.Writes(stats.WriteMAC) == 0 {
		t.Fatal("WTSC must persist dirty metadata for responsible entries")
	}
}

func TestEvictClassifiesStaleCopy(t *testing.T) {
	// Round 1's entries get posted to the ring; updating the same pages
	// afterwards bumps the cached minors, so when round 1's entries
	// evict they are stale.
	c := mustNew(t, evictConfig())
	n := pcbBlocksToPost(c)
	now := persistPages(c, 0, 0, n+1) // round 1: first block posted to ring
	now = persistPages(c, now, 0, n)  // round 2: newer minors for the same pages
	persistPages(c, now, 1000, 2*n)   // force evictions of round-1 blocks
	st := c.Stats()
	if st.Evicts(stats.EvictStaleCopy) == 0 {
		t.Fatalf("expected stale-copy outcomes, got: %s", st.String())
	}
}

func TestEvictClassifiesAlreadyEvicted(t *testing.T) {
	// Tiny metadata caches: by the time entries evict from the PUB, the
	// metadata blocks have left the cache (written back).
	cfg := evictConfig()
	cfg.CtrCacheBytes = 2 * cfg.BlockSize
	cfg.CtrCacheWays = 1
	cfg.MACCacheBytes = 2 * cfg.BlockSize
	cfg.MACCacheWays = 1
	c := mustNew(t, cfg)
	persistPages(c, 0, 0, 4*pcbBlocksToPost(c))
	st := c.Stats()
	if st.Evicts(stats.EvictAlreadyEvicted) == 0 {
		t.Fatalf("expected already-evicted outcomes, got: %s", st.String())
	}
}

func TestEvictClassifiesCleanCopy(t *testing.T) {
	// Two data blocks per page share a counter block. The first block's
	// entry (responsible) persists the counter block at its eviction,
	// capturing the second's minor; the second entry then finds a clean
	// block with its value -> clean copy.
	c := mustNew(t, evictConfig())
	var now int64
	for i := int64(0); i < 3*pcbBlocksToPost(c); i++ {
		base := i * int64(c.cfg.PageBytes)
		now = c.PersistBlock(now, base, blockOf(c, byte(i)))
		now = c.PersistBlock(now, base+int64(c.cfg.BlockSize), blockOf(c, byte(i)^0x55))
	}
	st := c.Stats()
	if st.Evicts(stats.EvictCleanCopy) == 0 {
		t.Fatalf("expected clean-copy outcomes, got: %s", st.String())
	}
}

func TestWTSCConservativeVersusWTBC(t *testing.T) {
	// Same trace under both policies: WTSC must persist at least as many
	// metadata blocks at eviction as WTBC (Section IV-B: WTSC is the
	// conservative approximation), and on this trace strictly more: WTSC
	// writes back a line its entry's update dirtied even when a younger
	// update superseded the entry, WTBC only when the entry is still the
	// newest, so a WTSC that applied WTBC's rule would tie.
	run := func(s config.Scheme) int64 {
		cfg := evictConfig()
		cfg.Scheme = s
		c := mustNew(t, cfg)
		n := pcbBlocksToPost(c)
		now := persistPages(c, 0, 0, n+1)
		now = persistPages(c, now, 0, n)
		persistPages(c, now, 500, 2*n)
		return c.Stats().Writes(stats.WriteCounter) + c.Stats().Writes(stats.WriteMAC)
	}
	wtsc := run(config.ThothWTSC)
	wtbc := run(config.ThothWTBC)
	if wtsc <= wtbc {
		t.Fatalf("WTBC persisted %d metadata blocks, WTSC %d; WTSC must persist strictly more", wtbc, wtsc)
	}
}

func TestEvictionKeepsRingBelowCapacity(t *testing.T) {
	c := mustNew(t, evictConfig())
	var now int64
	for i := int64(0); i < 400; i++ {
		now = c.PersistBlock(now, (i%100)*int64(c.cfg.PageBytes), blockOf(c, byte(i)))
	}
	if c.PUBOccupancy() > 1 {
		t.Fatal("ring overflowed")
	}
	if c.Stats().PUBEvictions == 0 {
		t.Fatal("expected eviction traffic")
	}
}

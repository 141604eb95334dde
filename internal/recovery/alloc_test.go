package recovery

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/nvm"
)

// TestRecoverZeroAllocPerEntry pins the allocation-free PUB scan and
// merge: serial Recover must allocate exactly as much on a crash image
// whose PUB is 95% full as on one 25% full, so nothing it allocates grows
// with the entries replayed. Both images rewrite one working set of
// page-strided blocks, more than the metadata caches hold, so they share
// their written counter blocks (the tree rebuild's work) and every
// metadata page recovery writes exists before it starts.
func TestRecoverZeroAllocPerEntry(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 64 << 10
	cfg.PUBEvictFraction = 1.0

	measure := func(fill float64) (allocs float64, entries int64) {
		img := crashAtFill(t, cfg, fill, 128)
		const runs = 3
		devs := make([]*nvm.Device, runs+1) // AllocsPerRun adds a warm-up call
		for i := range devs {
			devs[i] = img.Clone()
		}
		next := 0
		allocs = testing.AllocsPerRun(runs, func() {
			rep, err := Recover(cfg, devs[next])
			next++
			if err != nil {
				t.Fatalf("recovery at fill %.2f: %v", fill, err)
			}
			entries = rep.PUBEntries
		})
		return allocs, entries
	}
	lo, nlo := measure(0.25)
	hi, nhi := measure(0.95)
	if nhi < 3*nlo {
		t.Fatalf("images replay %d and %d entries; want the second ~4x the first", nlo, nhi)
	}
	t.Logf("serial Recover: %.0f allocs over %d entries, %.0f over %d", lo, nlo, hi, nhi)
	if lo != hi {
		t.Fatalf("serial Recover allocates %.0f times over %d entries but %.0f over %d: something allocates per entry",
			lo, nlo, hi, nhi)
	}
}

// TestParallelRecoveryMemoryFollowsWindow pins that parallel recovery
// holds one replay window of tasks, not the whole ring: a 2-worker pass
// at a 64-entry window over an image of tens of thousands of PUB
// entries must allocate well under the 32 B per entry (one shardTask)
// that queuing every entry before merging would take.
func TestParallelRecoveryMemoryFollowsWindow(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 512 << 10
	cfg.PUBEvictFraction = 1.0
	img := crashAtFill(t, cfg, 0.95, 128)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := recoverPass(cfg, img, 2, 64)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PUBEntries < 20000 {
		t.Fatalf("image replays %d entries, want tens of thousands", rep.PUBEntries)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	ring := rep.PUBEntries * 32
	t.Logf("2-worker pass at a 64-entry window: %d B allocated over %d entries (%d B at 32 B each)",
		alloc, rep.PUBEntries, ring)
	if alloc > ring/4 {
		t.Fatalf("2-worker pass allocates %d B over %d entries, want under a quarter of the ring's %d B",
			alloc, rep.PUBEntries, ring)
	}
}

// crashAtFill persists a round-robin over blocks data blocks, one per
// counter page, until the PUB reaches fill, then crashes and returns the
// image.
func crashAtFill(t *testing.T, cfg config.Config, fill float64, blocks int64) *nvm.Device {
	t.Helper()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Layout().DataBase
	data := make([]byte, cfg.BlockSize)
	var now int64
	for i := int64(0); c.PUBOccupancy() < fill; i++ {
		if i > 1<<20 {
			t.Fatalf("PUB stuck at occupancy %.2f", c.PUBOccupancy())
		}
		for j := range data {
			data[j] = byte(i) ^ byte(j)
		}
		now = c.PersistBlock(now, base+i%blocks*int64(cfg.PageBytes), data)
	}
	if err := c.Crash(now); err != nil {
		t.Fatal(err)
	}
	return c.Device()
}

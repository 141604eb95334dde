package recovery

import (
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

package recovery

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/nvm"
	"repro/internal/obs"
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

// TestProducerNeverOutlivesRecovery pins that the replay's producer
// goroutine, and every shard goroutine, is gone when a recovery
// returns, on every return path: success, ErrRootMismatch on a tampered
// image, ErrNoControlState, and a panic on the merging side (a tracer
// that panics at the first merge event). Each case runs Recover,
// RecoverParallel at 1, 2 and 4 workers, and the pass at a 64-entry
// window at the same worker counts, where the producer is still
// scanning, waiting for a free window, when the caller stops.
func TestProducerNeverOutlivesRecovery(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 64 << 10
	cfg.PUBEvictFraction = 1.0
	img := crashAtFill(t, cfg, 0.95, 128)
	lay, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := img.Clone()
	blk := tampered.Peek(lay.CtrBase)
	blk[3] ^= 0x10
	tampered.WriteBlock(lay.CtrBase, blk)
	noCtl := img.Clone()
	noCtl.WriteBlock(lay.CtlBase, make([]byte, cfg.BlockSize))

	passes := map[string]func(config.Config, *nvm.Device) (*Report, error){"Recover": Recover}
	for _, w := range []int{1, 2, 4} {
		passes[fmt.Sprintf("RecoverParallel/workers=%d", w)] = func(cfg config.Config, dev *nvm.Device) (*Report, error) {
			return RecoverParallel(cfg, dev, RecoverOpts{Workers: w})
		}
		passes[fmt.Sprintf("window=64/workers=%d", w)] = func(cfg config.Config, dev *nvm.Device) (*Report, error) {
			return recoverPass(cfg, dev, w, 64)
		}
	}
	panicky := cfg
	panicky.Tracer = obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindRecoveryMerge {
			panic("tracer refuses merge events")
		}
	})
	cases := []struct {
		name string
		cfg  config.Config
		img  *nvm.Device
		want error // nil: success; errPanic: the pass panics
	}{
		{"success", cfg, img, nil},
		{"root-mismatch", cfg, tampered, ErrRootMismatch},
		{"no-control-state", cfg, noCtl, ErrNoControlState},
		{"merge-panic", panicky, img, errPanic},
	}
	for _, c := range cases {
		for name, pass := range passes {
			base := runtime.NumGoroutine()
			err := callRecovering(func() error {
				_, err := pass(c.cfg, c.img.Clone())
				return err
			})
			if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("%s %s: err = %v, want %v", c.name, name, err, c.want)
			}
			// A goroutine that has signalled its exit may still be
			// counted for a moment; one that never exits stays counted.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s %s: %d goroutines after the pass, %d before", c.name, name, n, base)
			}
		}
	}
}

// errPanic stands for a recovery pass that panicked.
var errPanic = errors.New("recovery pass panicked")

// callRecovering runs fn and returns its error, or errPanic if it
// panicked.
func callRecovering(fn func() error) (err error) {
	defer func() {
		if recover() != nil {
			err = errPanic
		}
	}()
	return fn()
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

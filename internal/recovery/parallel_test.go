package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
)

// imageBytes serializes the device so runs can be compared byte-exactly.
func imageBytes(t *testing.T, dev *nvm.Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertParity recovers clones of img with the serial engine and with
// RecoverParallel at every given worker count, requiring identical error
// sentinels, byte-identical post-recovery images, identical write
// accounting, and equal report counters.
func assertParity(t *testing.T, cfg config.Config, img *nvm.Device, workerCounts ...int) {
	t.Helper()
	sdev := img.Clone()
	srep, serr := Recover(cfg, sdev)
	sbytes := imageBytes(t, sdev)
	for _, w := range workerCounts {
		pdev := img.Clone()
		prep, perr := RecoverParallel(cfg, pdev, RecoverOpts{Workers: w})
		if (serr == nil) != (perr == nil) {
			t.Fatalf("workers=%d: serial err=%v, parallel err=%v", w, serr, perr)
		}
		for _, sentinel := range []error{ErrRootMismatch, ErrNoControlState} {
			if errors.Is(serr, sentinel) != errors.Is(perr, sentinel) {
				t.Fatalf("workers=%d: sentinel %v diverges: serial=%v parallel=%v",
					w, sentinel, serr, perr)
			}
		}
		if !bytes.Equal(sbytes, imageBytes(t, pdev)) {
			t.Fatalf("workers=%d: post-recovery image diverges from serial", w)
		}
		if pdev.TotalWrites() != sdev.TotalWrites() {
			t.Fatalf("workers=%d: TotalWrites=%d, serial=%d", w, pdev.TotalWrites(), sdev.TotalWrites())
		}
		if (srep == nil) != (prep == nil) {
			t.Fatalf("workers=%d: report nil-ness diverges", w)
		}
		if srep != nil && !srep.CountsEqual(prep) {
			t.Fatalf("workers=%d: reports diverge\nserial:   %v\nparallel: %v", w, srep, prep)
		}
	}
}

func TestRecoverParallelMatchesSerial(t *testing.T) {
	for _, s := range []config.Scheme{config.ThothWTSC, config.ThothWTBC, config.BaselineStrict} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			c, _ := runAndCrash(t, cfg, 500, 4096)
			assertParity(t, cfg, c.Device(), 1, 2, 4, 8)
		})
	}
}

// TestRecoverParallelDefaultWorkers exercises the Workers<=0 default and
// checks the per-shard breakdown is internally consistent: shard entry
// counts partition the scan total, and merges sum to the report totals.
// One worker has no breakdown: its one shard would repeat the totals.
func TestRecoverParallelDefaultWorkers(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	c, model := runAndCrash(t, cfg, 120, 4096)
	rep, err := RecoverParallel(cfg, c.Device(), RecoverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers < 1 || rep.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers = %d, want GOMAXPROCS default %d", rep.Workers, runtime.GOMAXPROCS(0))
	}
	if rep.Workers == 1 {
		if rep.Shards != nil {
			t.Fatalf("one worker reports %d shards, want none", len(rep.Shards))
		}
		verifyReadable(t, cfg, c, model)
		return
	}
	if len(rep.Shards) != rep.Workers {
		t.Fatalf("len(Shards) = %d, want %d", len(rep.Shards), rep.Workers)
	}
	var entries, ctr, mac, stale int64
	for _, sh := range rep.Shards {
		entries += sh.Entries
		ctr += sh.MergedCtr
		mac += sh.MergedMAC
		stale += sh.SkippedStale
	}
	if entries != rep.PUBEntries || ctr != rep.MergedCtr || mac != rep.MergedMAC || stale != rep.SkippedStale {
		t.Fatalf("shard totals (%d,%d,%d,%d) do not partition report (%d,%d,%d,%d)",
			entries, ctr, mac, stale, rep.PUBEntries, rep.MergedCtr, rep.MergedMAC, rep.SkippedStale)
	}
	verifyReadable(t, cfg, c, model)
}

// TestParallelErrorPathParity covers the corrupt-PUB error paths of the
// issue: bad entry MACs, out-of-range addresses, and a torn final block
// must fail (or succeed) identically — same errors.Is sentinel, same
// image, same counters — from both recovery engines.
func TestParallelErrorPathParity(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)

	t.Run("bad-entry-mac", func(t *testing.T) {
		c, _ := runAndCrash(t, cfg, 500, 4096)
		dev, lay := c.Device(), c.Layout()
		// Flip every bit of every written PUB block: no entry verifies,
		// nothing merges, and the rebuilt root cannot match.
		for i := int64(0); i < lay.PUBBlocks(); i++ {
			addr := lay.PUBBlockAddr(i)
			if !dev.Written(addr) {
				continue
			}
			blk := dev.Peek(addr)
			for j := range blk {
				blk[j] ^= 0xFF
			}
			dev.WriteBlock(addr, blk)
		}
		if _, err := Recover(cfg, dev.Clone()); !errors.Is(err, ErrRootMismatch) {
			t.Fatalf("serial err = %v, want ErrRootMismatch", err)
		}
		assertParity(t, cfg, dev, 1, 2, 4, 8)
	})

	t.Run("out-of-range-entry", func(t *testing.T) {
		c, _ := runAndCrash(t, cfg, 300, 4096)
		dev, lay := c.Device(), c.Layout()
		// Overwrite one live PUB block with entries pointing far past the
		// data region: both engines must skip them without dereferencing.
		bogus := make([]pub.Entry, pub.EntriesPerBlock(cfg.BlockSize))
		for i := range bogus {
			bogus[i] = pub.Entry{BlockIndex: ^uint32(0) - uint32(i), MAC2: 0xDEAD, Minor: 1}
		}
		for i := int64(0); i < lay.PUBBlocks(); i++ {
			addr := lay.PUBBlockAddr(i)
			if dev.Written(addr) {
				dev.WriteBlock(addr, pub.PackBlock(cfg.BlockSize, bogus))
				break
			}
		}
		assertParity(t, cfg, dev, 1, 2, 4, 8)
	})

	t.Run("torn-final-block", func(t *testing.T) {
		c, _ := runAndCrash(t, cfg, 500, 4096)
		dev, lay := c.Device(), c.Layout()
		// Zero the back half of the last written PUB block, as if power
		// died mid-write of the youngest packed block.
		for i := lay.PUBBlocks() - 1; i >= 0; i-- {
			addr := lay.PUBBlockAddr(i)
			if !dev.Written(addr) {
				continue
			}
			blk := dev.Peek(addr)
			for j := len(blk) / 2; j < len(blk); j++ {
				blk[j] = 0
			}
			dev.WriteBlock(addr, blk)
			break
		}
		assertParity(t, cfg, dev, 1, 2, 4, 8)
	})

	t.Run("no-control-state", func(t *testing.T) {
		// A controller that never crashed never wrote the control region:
		// both paths must return ErrNoControlState.
		c, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := c.Device()
		if _, err := Recover(cfg, dev.Clone()); !errors.Is(err, ErrNoControlState) {
			t.Fatalf("serial err = %v, want ErrNoControlState", err)
		}
		if _, err := RecoverParallel(cfg, dev.Clone(), RecoverOpts{Workers: 4}); !errors.Is(err, ErrNoControlState) {
			t.Fatalf("parallel err = %v, want ErrNoControlState", err)
		}
		assertParity(t, cfg, dev, 1, 4)
	})
}

// TestRecoverParallelStress hammers the striped-locking path: a small
// image recovered over and over at Workers=8, so the race detector sees
// many goroutine interleavings over the same stripes.
func TestRecoverParallelStress(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 32 * int64(cfg.BlockSize)
	c, _ := runAndCrash(t, cfg, 300, 4096)
	img := c.Device()
	want := ""
	for i := 0; i < 25; i++ {
		dev := img.Clone()
		rep, err := RecoverParallel(cfg, dev, RecoverOpts{Workers: 8})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		got := string(imageBytes(t, dev))
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("iteration %d: image differs from iteration 0", i)
		}
		if !rep.RootVerified {
			t.Fatalf("iteration %d: root not verified", i)
		}
	}
}

// TestEstimateCyclesParallel pins the modeled speedup: the acceptance
// target (4 workers at least 2x faster than serial on a full PUB) holds
// in the cycle model regardless of how many CPUs this host has.
func TestEstimateCyclesParallel(t *testing.T) {
	cfg := config.Default()
	n := cfg.PUBBlocks()
	if got, want := EstimateCyclesParallel(cfg, n, 1), EstimateCycles(cfg, n); got != want {
		t.Fatalf("workers=1 estimate %d != serial %d", got, want)
	}
	serial := EstimateCycles(cfg, n)
	par4 := EstimateCyclesParallel(cfg, n, 4)
	if par4*2 > serial {
		t.Fatalf("modeled speedup at 4 workers is %.2fx, want >= 2x (serial=%d, parallel=%d)",
			float64(serial)/float64(par4), serial, par4)
	}
	if c4, c8 := EstimateCyclesParallel(cfg, n, 4), EstimateCyclesParallel(cfg, n, 8); c8 >= c4 {
		t.Fatalf("cycles not decreasing in workers: w4=%d w8=%d", c4, c8)
	}
}

// TestRecoverParallelWallClockSpeedup measures real wall-clock gain. It
// needs hardware parallelism, so it skips on boxes (like single-CPU CI
// containers) that cannot express it; the cycle-model assertion above
// runs everywhere.
func TestRecoverParallelWallClockSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs >= 4 CPUs, have GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 64 << 10
	cfg.PUBEvictFraction = 1.0
	c, _ := runAndCrash(t, cfg, 5000, 4096)
	img := c.Device()

	timeIt := func(f func(dev *nvm.Device)) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			dev := img.Clone()
			t0 := time.Now()
			f(dev)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial := timeIt(func(dev *nvm.Device) { Recover(cfg, dev) })
	par := timeIt(func(dev *nvm.Device) { RecoverParallel(cfg, dev, RecoverOpts{Workers: 4}) })
	if par > serial {
		t.Fatalf("parallel recovery slower than serial: %v vs %v", par, serial)
	}
	t.Logf("serial=%v parallel(w4)=%v speedup=%.2fx", serial, par, float64(serial)/float64(par))
}

// TestRecoverParallelPhaseEvents checks that a traced parallel recovery
// emits balanced begin/end spans for every phase and per-shard merge
// spans, and that a traced Recover emits the four whole-phase spans and
// no per-shard span.
func TestRecoverParallelPhaseEvents(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	const workers = 4
	type span struct {
		phase string
		shard int64
	}
	// spans recovers a clone of img with run under a plain tracer,
	// unsafe for concurrent use: recovery must emit from one goroutine
	// (the race lane checks). It returns each span's begin and end
	// counts.
	spans := func(img *nvm.Device, run func(config.Config, *nvm.Device) (*Report, error)) (begins, ends map[span]int) {
		begins, ends = map[span]int{}, map[span]int{}
		tcfg := cfg
		tcfg.Tracer = obs.Func(func(e obs.Event) {
			if e.Kind != obs.KindRecoveryPhase {
				return
			}
			sp := span{e.Part, e.Aux}
			switch e.Detail {
			case obs.PhaseBegin:
				begins[sp]++
			case obs.PhaseEnd:
				ends[sp]++
			default:
				t.Fatalf("unexpected phase detail %q", e.Detail)
			}
		})
		if _, err := run(tcfg, img.Clone()); err != nil {
			t.Fatal(err)
		}
		return begins, ends
	}
	c, _ := runAndCrash(t, cfg, 200, 4096)
	img := c.Device()

	begins, ends := spans(img, func(cfg config.Config, dev *nvm.Device) (*Report, error) {
		return RecoverParallel(cfg, dev, RecoverOpts{Workers: workers})
	})
	for _, phase := range []string{obs.PhaseScan, obs.PhaseMerge, obs.PhaseRebuild, obs.PhaseVerify} {
		sp := span{phase, 0}
		if begins[sp] != 1 || ends[sp] != 1 {
			t.Fatalf("phase %q: %d begins / %d ends, want 1/1", phase, begins[sp], ends[sp])
		}
	}
	for s := int64(1); s <= workers; s++ {
		sp := span{obs.PhaseMerge, s}
		if begins[sp] != 1 || ends[sp] != 1 {
			t.Fatalf("merge shard %d: %d begins / %d ends, want 1/1", s-1, begins[sp], ends[sp])
		}
	}

	begins, ends = spans(img, Recover)
	for _, phase := range []string{obs.PhaseScan, obs.PhaseMerge, obs.PhaseRebuild, obs.PhaseVerify} {
		sp := span{phase, 0}
		if begins[sp] != 1 || ends[sp] != 1 {
			t.Fatalf("Recover phase %q: %d begins / %d ends, want 1/1", phase, begins[sp], ends[sp])
		}
	}
	if len(begins) != 4 || len(ends) != 4 {
		t.Fatalf("Recover emits spans %v / %v, want only the four whole-phase spans", begins, ends)
	}
}

// TestRecoverParallelMergeEventsMatchSerial checks that a traced
// parallel recovery is reproducible: at every worker count it emits the
// serial Recover's merge events, event for event, in ring order.
func TestRecoverParallelMergeEventsMatchSerial(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	img := seededCrash(t, cfg, 1, 1500)
	want := recoverTraced(cfg, img, Recover)
	for _, w := range []int{1, 2, 4, 8} {
		got := recoverTraced(cfg, img, func(cfg config.Config, dev *nvm.Device) (*Report, error) {
			return RecoverParallel(cfg, dev, RecoverOpts{Workers: w})
		})
		assertSameRecovery(t, fmt.Sprintf("workers=%d", w), want, got)
	}
}

// TestRecoverParallelPhaseCycles pins the modeled phase costs of one
// fixed crash image at 1, 2 and 4 workers and under Recover (the
// one-worker row), and the four whole-phase spans a traced run emits:
// scan, merge, rebuild and verify lie end to end from cycle 0. The
// model divides the merge (slowest shard) and the tree rebuild across
// workers, whatever the host does to compute them.
func TestRecoverParallelPhaseCycles(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	c, _ := runAndCrash(t, cfg, 500, 4096)
	img := c.Device()
	want := map[int][4]int64{ // scan, merge, rebuild, verify
		1: {33600, 2963520, 31080, 240},
		2: {33600, 1599360, 15540, 240},
		4: {33600, 799680, 7770, 240},
	}
	phases := []string{obs.PhaseScan, obs.PhaseMerge, obs.PhaseRebuild, obs.PhaseVerify}
	// Workers 0 stands for Recover, which must give the one-worker row.
	for _, w := range []int{1, 2, 4, 0} {
		label := fmt.Sprintf("workers=%d", w)
		type span struct{ begin, end int64 }
		spans := map[string]span{}
		tcfg := cfg
		tcfg.Tracer = obs.Func(func(e obs.Event) {
			if e.Kind != obs.KindRecoveryPhase || e.Aux != 0 {
				return
			}
			sp := spans[e.Part]
			if e.Detail == obs.PhaseBegin {
				sp.begin = e.Cycle
			} else {
				sp.end = e.Cycle
			}
			spans[e.Part] = sp
		})
		var rep *Report
		var err error
		if w == 0 {
			label, w = "Recover", 1
			rep, err = Recover(tcfg, img.Clone())
		} else {
			rep, err = RecoverParallel(tcfg, img.Clone(), RecoverOpts{Workers: w})
		}
		if err != nil {
			t.Fatal(err)
		}
		got := [4]int64{rep.ScanCycles, rep.MergeCycles, rep.RebuildCycles, rep.VerifyCycles}
		if got != want[w] {
			t.Errorf("%s: phase cycles %v, want %v", label, got, want[w])
		}
		var at int64
		for i, p := range phases {
			if sp := (span{at, at + want[w][i]}); spans[p] != sp {
				t.Errorf("%s: %s span %v, want %v", label, p, spans[p], sp)
			}
			at += want[w][i]
		}
	}
}

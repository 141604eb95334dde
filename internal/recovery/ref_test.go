package recovery

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/layout"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
)

// refRecover is the FIFO replay that the windowed, block-ordered replay
// must match: the recovery that merges every PUB entry in ring order as
// the scan reaches it, emits its outcome at once, then rebuilds the
// tree and compares the roots. It fills only the fields CountsEqual
// compares.
func refRecover(cfg config.Config, dev *nvm.Device) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{}

	savedRoot, err := core.LoadRoot(cfg.BlockSize, lay.CtlBase, dev.Peek)
	if err != nil {
		return nil, fmt.Errorf("%w: no persisted root: %v", ErrNoControlState, err)
	}

	if cfg.Scheme.IsThoth() {
		ring, err := openPUB(lay, dev, rep)
		if err != nil {
			return nil, err
		}
		m := &newMergers(lay, dev, cfg.Seed, 1)[0]
		rep.PUBEntries = scanPUB(cfg, ring, func(t shardTask) bool {
			t.out = m.mergeEntry(&t)
			if cfg.Tracer != nil {
				emitMerges(cfg, []shardTask{t})
			}
			return true
		})
		rep.MergedCtr, rep.MergedMAC, rep.SkippedStale = m.sr.MergedCtr, m.sr.MergedMAC, m.sr.SkippedStale
	}

	root, _ := bmt.Rebuild(lay, crypt.NewEngine(cfg.Seed), dev)
	rep.RootVerified = root == savedRoot
	if !rep.RootVerified {
		return rep, ErrRootMismatch
	}
	return rep, nil
}

// recovered is one recovery run's result: the recovered device, the
// report, the error and the merge events, in emission order.
type recovered struct {
	dev    *nvm.Device
	rep    *Report
	err    error
	merges []obs.Event
}

// recoverTraced recovers a clone of img with fn under a tracer that
// keeps the merge events.
func recoverTraced(cfg config.Config, img *nvm.Device, fn func(config.Config, *nvm.Device) (*Report, error)) recovered {
	var r recovered
	cfg.Tracer = obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindRecoveryMerge {
			r.merges = append(r.merges, e)
		}
	})
	r.dev = img.Clone()
	r.rep, r.err = fn(cfg, r.dev)
	return r
}

// assertSameRecovery fails unless got recovered exactly what want did:
// equal device bytes, the same error sentinel, CountsEqual reports and
// the same merge events in the same order.
func assertSameRecovery(t testing.TB, label string, want, got recovered) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
	}
	for _, sentinel := range []error{ErrRootMismatch, ErrNoControlState} {
		if errors.Is(want.err, sentinel) != errors.Is(got.err, sentinel) {
			t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
		}
	}
	if !got.dev.Equal(want.dev) {
		t.Fatalf("%s: recovered device bytes differ", label)
	}
	if (want.rep == nil) != (got.rep == nil) || want.rep != nil && !want.rep.CountsEqual(got.rep) {
		t.Fatalf("%s: report\n%v\nwant\n%v", label, got.rep, want.rep)
	}
	if len(got.merges) != len(want.merges) {
		t.Fatalf("%s: %d merge events, want %d", label, len(got.merges), len(want.merges))
	}
	for i := range want.merges {
		if got.merges[i] != want.merges[i] {
			t.Fatalf("%s: merge event %d is %+v, want %+v", label, i, got.merges[i], want.merges[i])
		}
	}
}

// seededCrash persists writes seeded random blocks, half of them drawn
// from 64 hot blocks and half from 64 counter pages, then crashes. Hot
// blocks leave several entries each in the ring, fresh and stale;
// blocks sharing a counter or MAC block interleave in it; cold blocks
// evict metadata; and the crash flush duplicates the PCB's entries.
func seededCrash(t testing.TB, cfg config.Config, seed int64, writes int) *nvm.Device {
	t.Helper()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	base := c.Layout().DataBase
	bs := int64(cfg.BlockSize)
	data := make([]byte, bs)
	var now int64
	for i := 0; i < writes; i++ {
		block := rng.Int63n(64)
		if rng.Intn(2) == 0 {
			block = rng.Int63n(64 * int64(cfg.BlocksPerPage()))
		}
		rng.Read(data)
		now = c.PersistBlock(now, base+block*bs, data)
	}
	if err := c.Crash(now); err != nil {
		t.Fatal(err)
	}
	return c.Device()
}

// editOldestPUBBlock rewrites the entries of the oldest live PUB block
// through edit.
func editOldestPUBBlock(t testing.TB, cfg config.Config, dev *nvm.Device, edit func([]pub.Entry)) {
	t.Helper()
	lay, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := pub.NewRing(lay, dev)
	if err := ring.LoadCtl(); err != nil || ring.Empty() {
		t.Fatalf("crash image has no live PUB block (err %v)", err)
	}
	blk, addr := ring.Pop()
	entries := pub.UnpackBlockAppend(nil, cfg.BlockSize, blk)
	edit(entries)
	dev.WriteBlock(addr, pub.PackBlock(cfg.BlockSize, entries))
}

// replayImages are the crash images the replay is checked on: both
// block sizes, both Thoth schemes, the PCB behind the WPQ, and three
// images no crash leaves. Those hold a flipped counter-region bit,
// entries that name no data block, and two entries of one block that
// both verify under different minors, so the bytes the replay leaves
// depend on which of them it merges last.
var replayImages = []struct {
	name  string
	build func(t testing.TB, seed int64) (config.Config, *nvm.Device)
}{
	{"wtsc-128", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		return cfg, seededCrash(t, cfg, seed, 1500)
	}},
	{"wtsc-256", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		cfg.BlockSize = 256
		return cfg, seededCrash(t, cfg, seed, 1500)
	}},
	{"wtbc-128", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTBC)
		return cfg, seededCrash(t, cfg, seed, 1500)
	}},
	{"pcb-after-wpq", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		cfg.PCBAfterWPQ = true
		return cfg, seededCrash(t, cfg, seed, 1500)
	}},
	{"corrupt-ctr", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		dev := seededCrash(t, cfg, seed, 1500)
		lay, err := layout.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr := lay.CtrBlockAddr(lay.DataBase)
		blk := dev.Peek(addr)
		blk[3] ^= 0x10
		dev.WriteBlock(addr, blk)
		return cfg, dev
	}},
	{"out-of-range", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		dev := seededCrash(t, cfg, seed, 1500)
		editOldestPUBBlock(t, cfg, dev, func(entries []pub.Entry) {
			for i := 1; i < len(entries); i += 2 {
				entries[i].BlockIndex = ^uint32(0) - uint32(i)
			}
		})
		return cfg, dev
	}},
	{"forged-pair", func(t testing.TB, seed int64) (config.Config, *nvm.Device) {
		cfg := testConfig(config.ThothWTSC)
		dev := seededCrash(t, cfg, seed, 1500)
		editOldestPUBBlock(t, cfg, dev, func(entries []pub.Entry) {
			lay, err := layout.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := crypt.NewEngine(cfg.Seed)
			dataAddr := int64(entries[0].BlockIndex) * int64(cfg.BlockSize)
			major := ctr.Major(dev.Peek(lay.CtrBlockAddr(dataAddr)))
			mac1 := make([]byte, cfg.MACSize())
			for i, minor := range []uint8{(entries[0].Minor + 1) % 128, (entries[0].Minor + 2) % 128} {
				eng.MACInto(mac1, dev.Peek(dataAddr), dataAddr, crypt.Counter{Major: major, Minor: minor})
				entries[i] = pub.Entry{BlockIndex: entries[0].BlockIndex, MAC2: eng.MAC2(mac1), Minor: minor}
			}
		})
		return cfg, dev
	}},
}

// replayVariants are the recoveries checked against refRecover on one
// image: Recover, and the 1- and 3-worker passes at windows of 1, 2,
// PartialsPerBlock, PartialsPerBlock+1 and 1,000 entries.
func replayVariants(cfg config.Config) map[string]func(config.Config, *nvm.Device) (*Report, error) {
	vs := map[string]func(config.Config, *nvm.Device) (*Report, error){"Recover": Recover}
	p := cfg.PartialsPerBlock()
	for _, size := range []int{1, 2, p, p + 1, 1000} {
		for _, workers := range []int{1, 3} {
			vs[fmt.Sprintf("workers=%d/window=%d", workers, size)] = func(cfg config.Config, dev *nvm.Device) (*Report, error) {
				return recoverPass(cfg, dev, workers, size)
			}
		}
	}
	return vs
}

// TestReplayMatchesFIFO checks the windowed, block-ordered replay
// against the FIFO replay on every replayImages image: each variant
// must leave the same device bytes, report, error sentinel and merge
// events.
func TestReplayMatchesFIFO(t *testing.T) {
	for _, im := range replayImages {
		t.Run(im.name, func(t *testing.T) {
			cfg, img := im.build(t, 1)
			want := recoverTraced(cfg, img, refRecover)
			if want.rep == nil || want.rep.PUBEntries < int64(2*cfg.PartialsPerBlock()) {
				t.Fatalf("image replays %v, want several PUB blocks", want.rep)
			}
			for label, fn := range replayVariants(cfg) {
				assertSameRecovery(t, label, want, recoverTraced(cfg, img, fn))
			}
		})
	}
}

// FuzzReplayOrder lets the fuzzer pick the crash image (its kind and
// seed) and the replay window, and checks the 1- and 3-worker passes at
// that window against the FIFO replay.
func FuzzReplayOrder(f *testing.F) {
	for seed := range int64(len(replayImages)) {
		f.Add(seed, uint16(seed*seed)) // each image once, windows of 1 to 37
	}
	f.Add(int64(-3), uint16(999))
	f.Fuzz(func(t *testing.T, seed int64, window uint16) {
		im := replayImages[uint64(seed)%uint64(len(replayImages))]
		cfg, img := im.build(t, seed)
		size := 1 + int(window)
		want := recoverTraced(cfg, img, refRecover)
		for _, workers := range []int{1, 3} {
			assertSameRecovery(t, fmt.Sprintf("%s seed=%d workers=%d/window=%d", im.name, seed, workers, size), want,
				recoverTraced(cfg, img, func(cfg config.Config, dev *nvm.Device) (*Report, error) {
					return recoverPass(cfg, dev, workers, size)
				}))
		}
	})
}

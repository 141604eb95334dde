package thoth

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// poolConfig shrinks the geometry for pool tests: small module so the
// per-shard slices stay cheap, PUB small enough that evictions happen.
func poolConfig() Config {
	cfg := testConfig(WTSC)
	cfg.MemBytes = 64 << 20
	cfg.PUBBytes = 64 << 10
	return cfg
}

// splitmix is a tiny deterministic generator for test traffic.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// driveOps applies a deterministic mixed workload — partial writes,
// cross-block writes, aligned batches — through the given write/batch
// functions, confined to [0, size).
func driveOps(t *testing.T, seed uint64, size int64, bs int64,
	write func(addr int64, data []byte) error, batch func([]WriteReq) error) map[int64][]byte {
	t.Helper()
	rng := splitmix(seed)
	golden := make(map[int64][]byte) // block base -> plaintext
	apply := func(addr int64, data []byte) {
		for off := int64(0); off < int64(len(data)); {
			blk := (addr + off) / bs * bs
			g, ok := golden[blk]
			if !ok {
				g = make([]byte, bs)
				golden[blk] = g
			}
			lo := addr + off - blk
			n := bs - lo
			if rem := int64(len(data)) - off; n > rem {
				n = rem
			}
			copy(g[lo:lo+n], data[off:off+n])
			off += n
		}
	}
	for i := 0; i < 120; i++ {
		switch rng.next() % 3 {
		case 0: // partial / unaligned write spanning up to 3 blocks
			n := int64(1 + rng.next()%uint64(3*bs-1))
			addr := int64(rng.next() % uint64(size-n))
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rng.next())
			}
			if err := write(addr, data); err != nil {
				t.Fatalf("op %d: write(%d,+%d): %v", i, addr, n, err)
			}
			apply(addr, data)
		case 1: // aligned full-block write
			addr := int64(rng.next()%uint64(size/bs)) * bs
			data := make([]byte, bs)
			for j := range data {
				data[j] = byte(rng.next())
			}
			if err := write(addr, data); err != nil {
				t.Fatalf("op %d: write(%d): %v", i, addr, err)
			}
			apply(addr, data)
		case 2: // batch of aligned blocks scattered across the region
			reqs := make([]WriteReq, 1+rng.next()%8)
			for r := range reqs {
				addr := int64(rng.next()%uint64(size/bs)) * bs
				data := make([]byte, bs)
				for j := range data {
					data[j] = byte(rng.next())
				}
				reqs[r] = WriteReq{Addr: addr, Data: data}
			}
			if err := batch(reqs); err != nil {
				t.Fatalf("op %d: batch: %v", i, err)
			}
			for _, r := range reqs {
				apply(r.Addr, r.Data)
			}
		}
	}
	return golden
}

// TestPoolOneShardMatchesSystem drives a one-shard Pool — what a System
// is — and a bare controller with the identical operation stream, the
// controller through WriteRange, ReadRange and PersistBatch on one
// chained clock, and requires byte-identical results at every level:
// read-back plaintext, statistics (including modeled cycles), and the
// final shut-down device image.
func TestPoolOneShardMatchesSystem(t *testing.T) {
	cfg := poolConfig()
	ctl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.DataSize() != ctl.Layout().DataBytes {
		t.Fatalf("pool data %d, controller data %d", pool.DataSize(), ctl.Layout().DataBytes)
	}
	size := pool.DataSize()
	bs := int64(cfg.BlockSize)

	var now int64
	write := func(addr int64, data []byte) error {
		now = ctl.WriteRange(now, addr, data)
		return nil
	}
	batch := func(reqs []WriteReq) error {
		creqs := make([]core.WriteReq, len(reqs))
		for i, r := range reqs {
			creqs[i] = core.WriteReq{Addr: ctl.Layout().DataBase + r.Addr, Data: r.Data}
		}
		now = ctl.PersistBatch(now, creqs)
		return nil
	}
	golden := driveOps(t, 42, size, bs, write, batch)
	poolGolden := driveOps(t, 42, size, bs, pool.Write, pool.PersistBatch)
	if len(golden) != len(poolGolden) {
		t.Fatalf("golden divergence: %d vs %d blocks", len(golden), len(poolGolden))
	}

	ref := make([]byte, bs)
	for blk, want := range golden {
		got, err := pool.Read(blk, int(bs))
		if err != nil {
			t.Fatalf("pool read %d: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pool block %d diverges from golden", blk)
		}
		now = ctl.ReadRange(now, blk, ref)
		if !bytes.Equal(ref, got) {
			t.Fatalf("block %d: pool and controller plaintext diverge", blk)
		}
	}

	pst, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ctl.SyncStats()
	cst := *ctl.Stats()
	cst.Cycles = now
	if pst != cst {
		t.Fatalf("one-shard pool stats diverge from the controller:\npool:       %+v\ncontroller: %+v", pst, cst)
	}

	pimg, err := pool.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Shutdown(now); err != nil {
		t.Fatal(err)
	}
	if !pimg.Devices[0].Equal(ctl.Device()) {
		t.Fatal("one-shard pool device image diverges from the controller's")
	}
}

// TestPoolCrashSubsetRecover writes across a 4-shard pool, crashes a
// strict subset of the shards (the rest shut down cleanly), recovers,
// reopens, and requires every byte back.
func TestPoolCrashSubsetRecover(t *testing.T) {
	cfg := poolConfig()
	const shards = 4
	pool, err := NewPool(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	bs := int64(cfg.BlockSize)
	golden := driveOps(t, 7, pool.DataSize(), bs, pool.Write, pool.PersistBatch)

	mask := []bool{true, false, true, true}
	img, err := pool.CrashShards(mask)
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := pool.Read(0, int(bs)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: err = %v, want ErrCrashed", err)
	}
	if err := pool.PersistBatch(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("empty batch after crash: err = %v, want ErrCrashed", err)
	}

	rep, err := RecoverPool(cfg, shards, img, RecoverOpts{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i, crashed := range mask {
		if crashed == (rep.Shards[i] == nil) {
			t.Fatalf("shard %d: crashed=%v but report=%v", i, crashed, rep.Shards[i])
		}
	}

	pool2, err := OpenPool(cfg, shards, img)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer pool2.Shutdown()
	for blk, want := range golden {
		got, err := pool2.Read(blk, int(bs))
		if err != nil {
			t.Fatalf("read %d after recovery: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d lost across crash+recovery", blk)
		}
	}
}

// TestPoolConcurrentClients hammers a pool from many goroutines —
// overlapping reads, disjoint writes, stats polls — and verifies every
// writer's blocks read back intact. Its variants add pollers of
// ShardStats and VerifyCrashConsistency, and a CrashShards racing the
// clients halfway through: every op must then succeed or fail with
// ErrCrashed, and nothing may deadlock. Run under -race (the race lane
// runs it ten times) this pins the per-shard lock discipline.
func TestPoolConcurrentClients(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pollers bool
		crash   bool
	}{
		{"clients", false, false},
		{"pollers", true, false},
		{"crash", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentClients(t, tc.pollers, tc.crash) })
	}
}

func concurrentClients(t *testing.T, pollers, crash bool) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	bs := int64(cfg.BlockSize)
	blocks := pool.DataSize() / bs
	const clients = 8
	const perClient = 64

	// ok reports whether an op succeeded. A failure must be ErrCrashed,
	// and only once the crash has begun.
	var crashing atomic.Bool
	ok := func(what string, err error) bool {
		if err != nil && !(crashing.Load() && errors.Is(err, ErrCrashed)) {
			t.Errorf("%s: %v", what, err)
		}
		return err == nil
	}
	var progress atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if pollers {
		bg.Add(2)
		go func() {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ok("shard stats", func() error { _, err := pool.ShardStats(i % pool.Shards()); return err }())
			}
		}()
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok("verify", pool.VerifyCrashConsistency())
			}
		}()
	}
	if crash {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for progress.Load() < clients*perClient/2 {
				runtime.Gosched()
			}
			crashing.Store(true)
			if _, err := pool.CrashShards([]bool{true, false, true, false}); err != nil {
				t.Errorf("crash: %v", err)
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := splitmix(1000 + c)
			for i := 0; i < perClient; i++ {
				progress.Add(1)
				// Each client owns the blocks congruent to it mod clients.
				blk := (int64(rng.next()%uint64(blocks))/clients*clients + int64(c)) % blocks * bs
				data := make([]byte, bs)
				for j := range data {
					data[j] = byte(c)
				}
				if !ok(fmt.Sprintf("client %d: write", c), pool.Write(blk, data)) {
					continue
				}
				got, err := pool.Read(blk, int(bs))
				if ok(fmt.Sprintf("client %d: read", c), err) && !bytes.Equal(got, data) {
					t.Errorf("client %d: block %d corrupted", c, blk)
					return
				}
				if i%16 == 0 {
					ok(fmt.Sprintf("client %d: stats", c), func() error { _, err := pool.Stats(); return err }())
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	err = pool.VerifyCrashConsistency()
	if crash {
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("verify after the crash: %v, want ErrCrashed", err)
		}
	} else if err != nil {
		t.Fatalf("crash consistency after concurrent load: %v", err)
	}
}

// TestPoolErrors pins the error surface: out-of-range accesses, bad
// batch requests, bad shard geometry, and crash-mask mismatches.
func TestPoolErrors(t *testing.T) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(pool.DataSize(), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v, want ErrOutOfRange", err)
	}
	if err := pool.PersistBatch([]WriteReq{{Addr: 1, Data: make([]byte, cfg.BlockSize)}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("unaligned batch: %v, want ErrOutOfRange", err)
	}
	if _, err := pool.CrashShards([]bool{true}); err == nil {
		t.Fatal("short crash mask must be rejected")
	}
	if _, err := pool.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := pool.PersistBatch(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("empty batch after shutdown: %v, want ErrCrashed", err)
	}
	if _, err := pool.Shutdown(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("double shutdown: %v, want ErrCrashed", err)
	}
	if _, err := NewPool(cfg, 0); err == nil {
		t.Fatal("zero shards must be rejected")
	}
}

// TestPoolThroughputScales measures real wall-clock gain of sharding.
// Like the parallel-recovery twin it needs hardware parallelism, so it
// skips on single-CPU runners; BENCH.json records the scaling (or the
// documented parity overhead) either way.
func TestPoolThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs >= 4 CPUs, have GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
	cfg := poolConfig()
	bs := int64(cfg.BlockSize)
	const rounds = 40
	const batch = 256

	run := func(shards int) time.Duration {
		pool, err := NewPool(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Shutdown()
		reqs := make([]WriteReq, batch)
		payload := make([]byte, bs)
		blocks := pool.DataSize() / bs
		rng := splitmix(99)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			for r := 0; r < rounds; r++ {
				for j := range reqs {
					reqs[j] = WriteReq{Addr: int64(rng.next()%uint64(blocks)) * bs, Data: payload}
				}
				if err := pool.PersistBatch(reqs); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	one := run(1)
	four := run(4)
	if four > one*3/2 {
		t.Fatalf("4-shard pool much slower than 1-shard: %v vs %v", four, one)
	}
	t.Logf("1-shard=%v 4-shard=%v speedup=%.2fx", one, four, float64(one)/float64(four))
}

// TestPoolShardStatsSum checks the pooled snapshot is exactly the sum of
// the per-shard snapshots with Cycles as the shard maximum.
func TestPoolShardStatsSum(t *testing.T) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	driveOps(t, 3, pool.DataSize(), int64(cfg.BlockSize), pool.Write, pool.PersistBatch)

	var sum Stats
	var makespan int64
	for i := 0; i < pool.Shards(); i++ {
		st, err := pool.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles > makespan {
			makespan = st.Cycles
		}
		sum = sum.Add(st)
	}
	sum.Cycles = makespan
	pooled, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pooled != sum {
		t.Fatalf("pooled stats are not the shard sum:\npooled: %+v\nsum:    %+v", pooled, sum)
	}
	if pooled.TotalWrites() == 0 {
		t.Fatal("pool did no work")
	}
}

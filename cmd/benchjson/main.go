// Command benchjson runs the repository's benchmark-regression suite
// and reads/writes the committed baseline (BENCH.json at the repo root).
//
// Two kinds of benchmarks are measured with testing.Benchmark:
//
//   - micro: the controller hot paths (steady-state secure read and
//     persist), their dominant primitives (keyed MAC, counter-mode
//     pad XOR, PUB entry bit-packing and unpacking, an integrity-tree
//     node write-back), the observability hot paths
//     (histogram Observe, span attribution) and the load
//     generator's per-op tick. These carry
//     the zero-allocation guarantee: allocs/op is part of the baseline
//     and ANY increase is a failure.
//   - figure: one quick-scale end-to-end experiment run per scheme, the
//     wall-clock proxy for the paper-figure generators.
//
// Usage:
//
//	benchjson -update BENCH.json    re-measure and overwrite the baseline
//	benchjson -compare BENCH.json   re-measure and fail (exit 1) on
//	                                >15% ns/op or any allocs/op regression
//	benchjson                       measure and print JSON to stdout
//
// `make bench-json` wires -compare into `make ci`; BENCH_UPDATE=1
// switches it to -update for intentional performance changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/recovery"
)

// Entry is one benchmark's recorded result.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the on-disk baseline format.
type File struct {
	Note       string           `json:"note"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// nsTolerance is the relative ns/op regression allowed before -compare
// fails. Allocations have no tolerance: the baseline paths are
// zero-allocation by construction and must stay that way.
const nsTolerance = 0.15

// figureNsTolerance is the wider bound for the figure/ and recovery/
// benchmarks: each rep is a single end-to-end run (hundreds of
// microseconds to hundreds of ms), so min-of-reps absorbs much less
// scheduler noise than it does for the micros.
const figureNsTolerance = 0.35

// reps is how many times each benchmark is measured; the minimum ns/op
// is kept, discarding scheduler noise on loaded machines.
const reps = 3

type bench struct {
	name string
	fn   func(b *testing.B)
}

// benchConfig mirrors internal/core's test configuration: small caches
// and PUB so the steady state includes eviction work.
func benchConfig(s config.Scheme) config.Config {
	cfg := config.Default().WithScheme(s)
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = 16 << 10
	cfg.CtrCacheBytes = 4 << 10
	cfg.MACCacheBytes = 8 << 10
	cfg.MTCacheBytes = 16 << 10
	return cfg
}

func mustController(b *testing.B, s config.Scheme) *core.Controller {
	c, err := core.New(benchConfig(s))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// quickRunConfig is one figure-level experiment run at QuickScale.
func quickRunConfig(s config.Scheme, wl string) harness.RunConfig {
	sc := harness.QuickScale()
	cfg := config.Default().WithScheme(s)
	cfg.MemBytes = sc.MemBytes
	cfg.PUBBytes = sc.PUBBytes
	cfg.LLCBytes = sc.LLCBytes
	return harness.RunConfig{
		Config:     cfg,
		Workload:   wl,
		WarmupTxs:  sc.WarmupTxs,
		MeasureTxs: sc.MeasureTxs,
		SetupKeys:  sc.SetupKeys,
	}
}

func suite() []bench {
	return []bench{
		{"micro/read_hit", func(b *testing.B) {
			c := mustController(b, config.ThothWTSC)
			addr := c.Layout().DataBase
			blk := make([]byte, benchConfig(config.ThothWTSC).BlockSize)
			now := c.PersistBlock(0, addr, blk)
			now, _ = c.ReadBlock(now, addr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ = c.ReadBlock(now, addr)
			}
		}},
		{"micro/persist_steady", benchPersistScheme(config.ThothWTSC)},
		{"micro/persist_scheme_triad", benchPersistScheme(config.TriadRelaxed(64))},
		{"micro/crypt_mac", func(b *testing.B) {
			e := crypt.NewEngine(1)
			blk := make([]byte, 128)
			dst := make([]byte, 8)
			ctr := crypt.Counter{Major: 3, Minor: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.MACInto(dst, blk, 4096, ctr)
			}
		}},
		{"micro/crypt_xorpad", func(b *testing.B) {
			e := crypt.NewEngine(1)
			blk := make([]byte, 128)
			ctr := crypt.Counter{Major: 3, Minor: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.XorPad(blk, 4096, ctr)
			}
		}},
		{"micro/pub_pack", func(b *testing.B) {
			cfg := config.Default()
			entries := make([]pub.Entry, cfg.PartialsPerBlock())
			out := make([]byte, cfg.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pub.PackBlockInto(out, entries)
			}
		}},
		{"micro/pub_unpack", func(b *testing.B) {
			// The recovery scan's decode: one packed PUB block into a
			// reused entry slice. The MAC bits are pseudo-random, as
			// real second-level MACs are.
			cfg := config.Default()
			entries := make([]pub.Entry, cfg.PartialsPerBlock())
			for i := range entries {
				entries[i] = pub.Entry{
					BlockIndex: uint32(i) * 977,
					MAC2:       uint64(i+1) * 0x9E3779B97F4A7C15,
					Minor:      uint8(i * 13 % 128),
					Status:     uint8(i % 4),
				}
			}
			blk := pub.PackBlock(cfg.BlockSize, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries = pub.UnpackBlockAppend(entries[:0], cfg.BlockSize, blk)
			}
		}},
		{"micro/bmt_evict", func(b *testing.B) {
			// One MT-cache write-back of a level-0 tree node on
			// steady-ctl's 32 MiB machine: update one seeded-random
			// counter block of a fully populated tree, then read its
			// level-0 node's bytes, which rehashes only the counter
			// blocks buffered beneath that node. No root is read, as in
			// a controller between crashes.
			cfg := config.Default()
			cfg.MemBytes = 32 << 20
			cfg.PUBBytes = 1 << 20
			lay, err := layout.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr := bmt.New(lay, crypt.NewEngine(cfg.Seed))
			ctrs := lay.CtrBytes / int64(lay.BlockSize)
			blk, node := make([]byte, lay.BlockSize), make([]byte, lay.BlockSize)
			for i := int64(0); i < ctrs; i++ {
				blk[0] = byte(i) | 1
				tr.Update(i, blk)
			}
			tr.Root()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := rng.Int63n(ctrs)
				blk[1] = byte(i)
				tr.Update(idx, blk)
				tr.NodeBytesInto(node, 0, idx/layout.TreeArity)
			}
		}},
		{"micro/metrics_observe", func(b *testing.B) {
			h := new(metrics.Histogram)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(int64(i & 0xFFFF))
			}
		}},
		{"micro/span_record", func(b *testing.B) {
			// One op's worth of latency attribution: reset the span, charge
			// the queue wait, then walk a cursor through the write path's
			// stage boundaries. This runs per op on every attributed read
			// and write, so it must stay zero-allocation.
			var sp obs.Span
			var sink int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Reset()
				sp.Add(obs.SpanQueue, 40)
				start := int64(i)
				cur := obs.NewCursor(&sp, start)
				cur.Charge(obs.SpanFetch, start+120)
				cur.Charge(obs.SpanCrypto, start+160)
				cur.Charge(obs.SpanTree, start+250)
				cur.Charge(obs.SpanWPQ, start+280)
				cur.Charge(obs.SpanPersist, start+300)
				sink = sp.Total()
			}
			_ = sink
		}},
		{"micro/loadgen_tick", func(b *testing.B) {
			// One open-loop generator tick: pop the earliest-arrival tenant,
			// draw the op mix, pick a key, advance the arrival process and
			// fold the event into the stream hash. The tick must stay
			// zero-allocation — it runs once per generated op for every
			// scenario, and an allocating tick would distort the modeled
			// arrival schedule's wall-clock fidelity at high op counts.
			scn, err := loadgen.ScenarioByName("steady")
			if err != nil {
				b.Fatal(err)
			}
			scn.Ops = 0 // no budget; b.N bounds the loop
			cfg := benchConfig(config.ThothWTSC)
			ctl, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d, err := loadgen.NewDriver(scn, loadgen.NewControllerTarget(ctl), cfg, nil, loadgen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var op loadgen.Op
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.GenOp(&op)
			}
		}},
		{"micro/persist_serial", benchPersistSerial},
		{"micro/pool_1shard", benchPool(1)},
		{"micro/pool_4shard", benchPool(4)},
		{"micro/pool_16shard", benchPool(16)},
		{"recovery/pub25_serial", benchRecovery(0.25, 0)},
		{"recovery/pub25_workers4", benchRecovery(0.25, 4)},
		{"recovery/pub100_serial", benchRecovery(fullRingFill, 0)},
		{"recovery/pub100_workers4", benchRecovery(fullRingFill, 4)},
		{"figure/quick_thoth_btree", func(b *testing.B) {
			rc := quickRunConfig(config.ThothWTSC, "btree")
			for i := 0; i < b.N; i++ {
				if _, err := harness.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"figure/quick_baseline_btree", func(b *testing.B) {
			rc := quickRunConfig(config.BaselineStrict, "btree")
			for i := 0; i < b.N; i++ {
				if _, err := harness.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// benchPersistScheme measures the steady-state persist critical path of
// one persistence scheme through the controller's policy switch: a 256-block
// hot set keeps the metadata caches warm, so ns/op isolates the
// per-write scheme work (strict in-place persists for the baseline and
// triad — plus triad's periodic tree checkpoint — versus the PCB/PUB
// partial-update path for Thoth). The hot path must stay
// allocation-free under every scheme.
func benchPersistScheme(s config.Scheme) func(*testing.B) {
	return func(b *testing.B) {
		c := mustController(b, s)
		cfg := benchConfig(s)
		blk := make([]byte, cfg.BlockSize)
		bs := int64(cfg.BlockSize)
		base := c.Layout().DataBase
		var now int64
		for i := int64(0); i < 256; i++ {
			now = c.PersistBlock(now, base+i%256*bs, blk)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = c.PersistBlock(now, base+int64(i)%256*bs, blk)
		}
	}
}

// benchPersistSerial measures a chained PersistBlock loop in the pool
// benchmarks' geometry: one op is 256 persists of distinct hot blocks
// (metadata caches stay warm, counters far from overflow, PUB far from
// eviction pressure) at 256B blocks, where per-request crypto
// dominates. It is the serial reference for micro/pool_1shard.
func benchPersistSerial(b *testing.B) {
	cfg := config.Default().WithScheme(config.ThothWTSC).WithBlockSize(256)
	cfg.MemBytes = 1 << 30
	// A small PUB wraps during warm-up, so every ring page the steady
	// state touches is allocated before the timer starts and the loop
	// stays allocation-free.
	cfg.PUBBytes = 64 << 10
	c, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	bs := int64(cfg.BlockSize)
	base := c.Layout().DataBase
	reqs := make([]core.WriteReq, batch)
	for i := range reqs {
		data := make([]byte, cfg.BlockSize)
		for j := range data {
			data[j] = byte(i) ^ byte(j)
		}
		reqs[i] = core.WriteReq{Addr: base + int64(i)*bs, Data: data}
	}
	run := func(now int64) int64 {
		for _, q := range reqs {
			now = c.PersistBlock(now, q.Addr, q.Data)
		}
		return now
	}
	var now int64
	for i := 0; i < 20; i++ { // warm caches and a full PUB wrap
		now = run(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = run(now)
	}
}

// benchPool measures the sharded engine's aggregate persist throughput:
// one op is a 256-request batch of distinct hot blocks scattered across
// every shard's groups (same geometry as persist_serial, so
// pool_1shard vs persist_serial is the pool front-end's cost
// over plain serial persists, and pool_4shard vs pool_1shard isolates
// multi-controller scaling). The scaling stacks two effects: aggregate
// capacity (full-size caches and PUB per shard over a fraction of the
// working set) and PersistBatch's fan-out, which persists the busy
// shards' shares concurrently — EXPERIMENTS "Sharded pool" records the
// breakdown.
func benchPool(shards int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := config.Default().WithScheme(config.ThothWTSC).WithBlockSize(256)
		cfg.MemBytes = 1 << 30
		cfg.PUBBytes = 64 << 10
		p, err := engine.New(cfg, shards)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { p.Shutdown() })
		const batch = 256
		bs := int64(cfg.BlockSize)
		reqs := make([]engine.WriteReq, batch)
		for i := range reqs {
			data := make([]byte, cfg.BlockSize)
			for j := range data {
				data[j] = byte(i) ^ byte(j)
			}
			reqs[i] = engine.WriteReq{Addr: int64(i) * bs, Data: data}
		}
		for i := 0; i < 20; i++ { // warm caches and wrap each shard's PUB
			if err := p.PersistBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.PersistBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fullRingFill is the "PUB 100%" occupancy target: the ring is filled
// to just under capacity, leaving the headroom the crash-time ADR flush
// needs to drain the PCB residue.
const fullRingFill = 0.95

// crashedRecoveryImage persists distinct blocks until the PUB ring
// reaches the target occupancy, then crashes, returning the image the
// recovery benchmarks replay. A 64KiB PUB (512 packed blocks) keeps the
// merge work large enough that sharding it is meaningful.
func crashedRecoveryImage(b *testing.B, fill float64) (config.Config, *nvm.Device) {
	cfg := benchConfig(config.ThothWTSC)
	cfg.PUBBytes = 64 << 10
	// Eviction normally starts at 80% occupancy; push the threshold to
	// capacity (the controller still reserves PCBEntries blocks of
	// crash-flush headroom) so the ring can actually reach fullRingFill.
	cfg.PUBEvictFraction = 1.0
	c, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bs := int64(cfg.BlockSize)
	blk := make([]byte, cfg.BlockSize)
	var now int64
	for i := 0; c.PUBOccupancy() < fill; i++ {
		if i > 1<<20 {
			b.Fatalf("ring never reached occupancy %.2f (stuck at %.2f)", fill, c.PUBOccupancy())
		}
		for j := range blk {
			blk[j] = byte(i) ^ byte(j)
		}
		now = c.PersistBlock(now, int64(i)*bs, blk)
	}
	if err := c.Crash(now); err != nil {
		b.Fatal(err)
	}
	return cfg, c.Device()
}

// benchRecovery measures one recovery of the crash image per iteration
// (the clone that resets the image is excluded from the timer). workers
// 0 is the serial reference engine.
func benchRecovery(fill float64, workers int) func(*testing.B) {
	return func(b *testing.B) {
		cfg, img := crashedRecoveryImage(b, fill)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dev := img.Clone()
			b.StartTimer()
			var err error
			if workers > 0 {
				_, err = recovery.RecoverParallel(cfg, dev, recovery.RecoverOpts{Workers: workers})
			} else {
				_, err = recovery.Recover(cfg, dev)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// measure runs every benchmark reps times and keeps the fastest ns/op
// (allocations are deterministic; any rep's count is the count).
func measure() File {
	out := File{
		Note:       "benchmark baseline; refresh with `BENCH_UPDATE=1 make bench-json`",
		Benchmarks: make(map[string]Entry),
	}
	for _, bm := range suite() {
		var best Entry
		for r := 0; r < reps; r++ {
			res := testing.Benchmark(bm.fn)
			e := Entry{
				NsPerOp:     float64(res.NsPerOp()),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			if r == 0 || e.NsPerOp < best.NsPerOp {
				best = e
			}
		}
		fmt.Fprintf(os.Stderr, "%-28s %12.1f ns/op %6d allocs/op %8d B/op\n",
			bm.name, best.NsPerOp, best.AllocsPerOp, best.BytesPerOp)
		out.Benchmarks[bm.name] = best
	}
	return out
}

// compare checks fresh results against the baseline. It returns one
// message per violated bound.
func compare(baseline, fresh File) []string {
	var bad []string
	for name, base := range baseline.Benchmarks {
		got, ok := fresh.Benchmarks[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: benchmark disappeared from the suite", name))
			continue
		}
		// Benchmarks that spawn worker goroutines (the workers-variant
		// recovery and the sharded pool's PersistBatch fan-out) are
		// exempt from the exact allocation gate: allocs/op moves with
		// b.N (goroutine-stack reuse) rather than with the code under
		// test. A one-shard pool persists on the caller and starts no
		// goroutine, so it is gated exactly.
		spawns := strings.HasSuffix(name, "_workers4") ||
			(strings.HasPrefix(name, "micro/pool_") && name != "micro/pool_1shard")
		allocLimit := base.AllocsPerOp
		if strings.HasPrefix(name, "figure/") || strings.HasPrefix(name, "recovery/") {
			// The figure/ family runs a whole simulation per op (tens of
			// thousands of allocations), and serial recovery a whole tree
			// rebuild; map-growth timing jitters the count by a handful
			// run-to-run. Allow 0.5% drift there — real regressions, such
			// as one allocation per PUB entry, move the count by far more
			// — while the micro/ hot-path benches stay exact.
			allocLimit += base.AllocsPerOp / 200
		}
		if !spawns && got.AllocsPerOp > allocLimit {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %d -> %d (limit %d)",
				name, base.AllocsPerOp, got.AllocsPerOp, allocLimit))
		}
		tol := nsTolerance
		// The pool family rides the scheduler (one goroutine per busy
		// shard in PersistBatch), so it gets the wider bound too.
		if strings.HasPrefix(name, "figure/") || strings.HasPrefix(name, "recovery/") ||
			strings.HasPrefix(name, "micro/pool_") {
			tol = figureNsTolerance
		}
		if limit := base.NsPerOp * (1 + tol); got.NsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: ns/op %.1f -> %.1f (>%.0f%% over baseline)",
				name, base.NsPerOp, got.NsPerOp, 100*tol))
		}
	}
	return bad
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func save(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	update := flag.String("update", "", "measure and overwrite this baseline file")
	against := flag.String("compare", "", "measure and compare against this baseline file")
	flag.Parse()

	switch {
	case *update != "" && *against != "":
		fmt.Fprintln(os.Stderr, "benchjson: -update and -compare are mutually exclusive")
		os.Exit(2)
	case *update != "":
		if err := save(*update, measure()); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline written to %s\n", *update)
	case *against != "":
		baseline, err := load(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if bad := compare(baseline, measure()); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s:\n", len(bad), *against)
			for _, m := range bad {
				fmt.Fprintf(os.Stderr, "  %s\n", m)
			}
			fmt.Fprintln(os.Stderr, "intentional change? refresh with: BENCH_UPDATE=1 make bench-json")
			os.Exit(1)
		}
		fmt.Printf("benchmarks within bounds of %s\n", *against)
	default:
		data, err := json.MarshalIndent(measure(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
}

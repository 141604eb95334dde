package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper's 128B-block, 128B-transaction references for Figures 8
// and 9, against which fig8-closed reports its error.
const (
	paperSpeedup    = 1.22
	paperWriteRatio = 0.68
)

// crashFill is the PUB occupancy at which crash-recover crashes: just
// under capacity, leaving the headroom the crash-time PCB flush needs.
const crashFill = 0.95

// recoveryWorkers is the parallel-recovery worker count: the CPUs of the
// 2-core host the baselines were measured on, so the process never has
// more busy threads than CPUs.
const recoveryWorkers = 2

// steadyCacheShrink divides steady-ctl's counter, MAC and tree caches,
// so that its working set overflows them as that of a 128 MiB machine
// with the Table I caches does (tree hit rate ~0.77), and integrity-tree
// misses matter. burst-pool keeps the Table I caches, where the tree of
// the same 32 MiB fits (hit rate 1.0): a change to tree-miss handling
// should move steady-ctl and leave burst-pool alone. Shrinking the
// caches instead of growing the memory keeps the host footprint at a
// quarter: the 128 MiB machine's throughput swung 1.5x with the load of
// other tenants of the host, and its ten-seed ops_per_s spread reached
// 0.27 and 0.38 where this one read 0.08 to 0.14.
const steadyCacheShrink = 4

// scale sets the size of every workload. defaultScale is what the
// benchmark runs; tests use smaller ones.
type scale struct {
	fig8        harness.Scale
	openMem     int64 // MemBytes of the open-loop machines
	warmupOps   int64 // unmeasured open-loop ops before the measured ones
	steadyOps   int64
	burstOps    int64
	crashPUB    int64 // PUB bytes of the crashed controller
	crashBlocks int64 // working set of the writes before the crash, in blocks
}

// defaultScale is the paper's DefaultScale for fig8-closed.
func defaultScale() scale {
	return scale{
		fig8:        harness.DefaultScale(),
		openMem:     32 << 20,
		warmupOps:   100_000,
		steadyOps:   300_000,
		burstOps:    200_000,
		crashPUB:    16 << 20,
		crashBlocks: 1 << 18,
	}
}

// workloadDef is one named workload. BENCHMARK.json and README.md say
// why each was chosen.
type workloadDef struct {
	name string
	run  func(e *env) *rep
}

func workloads() []workloadDef {
	return []workloadDef{
		{"fig8-closed", runFig8},
		{"steady-ctl", func(e *env) *rep {
			cfg := openConfig(e)
			cfg.CtrCacheBytes /= steadyCacheShrink
			cfg.MACCacheBytes /= steadyCacheShrink
			cfg.MTCacheBytes /= steadyCacheShrink
			return runOpen(e, "steady", 0, cfg, e.sc.steadyOps)
		}},
		{"burst-pool", func(e *env) *rep { return runOpen(e, "burst", 2, openConfig(e), e.sc.burstOps) }},
		{"crash-recover", runCrash},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what one rep runs with. A traced rep records boundary spans
// and profiles its set-up and measured phase.
type env struct {
	seed   int64
	sc     scale
	traced bool
	prof   *profiler // nil unless traced
}

// rep is the outcome of one repetition of a workload.
type rep struct {
	phases  [numPhases]time.Duration
	last    time.Time     // end of the last lapped phase
	measure time.Duration // wall time of the measured ops (the ops_per_s base)
	ops     int64         // measured operations attempted
	failed  int64
	mallocs uint64 // heap allocations during the measured ops
	// calls is the host time of each call into the workload's top layer
	// during the measured phase (traced reps only).
	calls []time.Duration
	// values holds the modeled metrics, and in traced reps the host
	// per-layer values only the workload can measure.
	values map[string]float64
	errs   []string
}

func newRep() *rep { return &rep{last: time.Now(), values: make(map[string]float64)} }

// lap charges the time since the previous lap to a phase.
func (r *rep) lap(phase int) {
	now := time.Now()
	r.phases[phase] += now.Sub(r.last)
	r.last = now
}

// setup is everything before the measured phase.
func (r *rep) setup() time.Duration {
	var d time.Duration
	for p := 0; p < phaseMeasure; p++ {
		d += r.phases[p]
	}
	return d
}

// fail counts n operations as failed and records why.
func (r *rep) fail(n int64, format string, args ...any) {
	r.failed += n
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// catch runs fn, turning a panic into an error: the controller panics
// on an integrity violation, which a correctness check must report as a
// failure instead of ending the run.
func catch(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return fn()
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// machineConfig is the machine of the figure runs, keyed by the
// benchmark seed.
func machineConfig(sc scale, s config.Scheme, seed int64) config.Config {
	cfg := config.Default().WithScheme(s)
	cfg.MemBytes = sc.fig8.MemBytes
	cfg.PUBBytes = sc.fig8.PUBBytes
	cfg.LLCBytes = sc.fig8.LLCBytes
	cfg.Seed = seed
	return cfg
}

// openConfig is the Thoth WTSC machine of the open-loop workloads: the
// figure machine with openMem of memory.
func openConfig(e *env) config.Config {
	cfg := machineConfig(e.sc, config.ThothWTSC, e.seed)
	cfg.MemBytes = e.sc.openMem
	return cfg
}

// fig8RunConfig is one run of the Figure 8/9 pair.
func fig8RunConfig(sc scale, s config.Scheme, wl string, seed int64) harness.RunConfig {
	return harness.RunConfig{
		Config:     machineConfig(sc, s, seed),
		Workload:   wl,
		WarmupTxs:  sc.fig8.WarmupTxs,
		MeasureTxs: sc.fig8.MeasureTxs,
		SetupKeys:  sc.fig8.SetupKeys,
	}
}

// fig8Schemes is the Figure 8/9 pair: the adapted-Anubis strict
// baseline and Thoth WTSC.
var fig8Schemes = [2]config.Scheme{config.BaselineStrict, config.ThothWTSC}

// runFig8 is one rep of fig8-closed: every benchmark under both
// schemes, each run verified against the plaintext model.
func runFig8(e *env) *rep {
	rp := newRep()
	var base, thoth []stats.Stats
	for _, wl := range workload.Names() {
		var pair [2]stats.Stats
		ok := true
		for i, s := range fig8Schemes {
			rc := fig8RunConfig(e.sc, s, wl, e.seed)
			rp.ops += int64(rc.MeasureTxs)
			var r *harness.Runner
			err := catch(func() (err error) {
				pair[i], r, err = runPhases(rc, e, rp)
				return err
			})
			if err == nil {
				err = catch(func() error { _, err := r.VerifyAll(); return err })
			}
			rp.lap(phaseCheck)
			if err != nil {
				rp.fail(int64(rc.MeasureTxs), "%s/%v: %v", wl, s, err)
				ok = false
			}
		}
		if ok {
			base = append(base, pair[0])
			thoth = append(thoth, pair[1])
		}
	}
	fig8Values(rp.values, base, thoth)
	return rp
}

// fig8Values sets fig8-closed's modeled metrics from the measured-phase
// statistics of each benchmark under the baseline and under Thoth: the
// Figure 8 speedup gmean, the Figure 9 write-ratio mean, their error
// against the paper, and per-layer counts summed over the Thoth runs.
func fig8Values(v map[string]float64, base, thoth []stats.Stats) {
	var sum stats.Stats
	var speedups, ratios []float64
	for i := range thoth {
		sum = sum.Add(thoth[i])
		speedups = append(speedups, ratio(float64(base[i].Cycles), float64(thoth[i].Cycles)))
		ratios = append(ratios, ratio(float64(thoth[i].TotalWrites()), float64(base[i].TotalWrites())))
	}
	sp, wr := gmean(speedups), mean(ratios)
	v["model.speedup"] = sp
	v["model.write_ratio"] = wr
	v["model.paper_err_pct"] = 100 * (math.Abs(sp/paperSpeedup-1) + math.Abs(wr/paperWriteRatio-1)) / 2
	v["nvm_writes_per_op"] = ratio(float64(sum.TotalWrites()), float64(sum.Transactions))
	statsValues(v, &sum, sum.Transactions)
}

// runPhases drives one figure run through the public harness.Runner
// methods in the order harness.Run calls them, timing each phase. The
// cycles and statistics it returns equal harness.Run's for the same
// RunConfig (TestPhaseSplitMatchesRun), except the LLC counters, which
// the Runner does not expose. A traced rep runs the measured phase in
// chunks of cfg.Cores transactions and records the host time of each:
// RunTxs restarts its round-robin at core 0 on every call, so only
// whole rounds keep the run identical.
func runPhases(rc harness.RunConfig, e *env, rp *rep) (stats.Stats, *harness.Runner, error) {
	e.prof.start()
	defer e.prof.stop()
	r, err := harness.NewRunner(rc)
	if err != nil {
		return stats.Stats{}, nil, err
	}
	rp.lap(phaseBuild)
	r.Setup()
	rp.lap(phasePopulate)
	if rc.WarmupTxs > 0 {
		r.RunTxs(rc.WarmupTxs)
	}
	rp.lap(phaseWarmup)
	ctl := r.Controller()
	if scheme.UsesPUB(rc.Config.Scheme) {
		if err := ctl.PrefillPUB(); err != nil {
			return stats.Stats{}, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	ctl.ResetStats()
	m0 := mallocs()
	rp.lap(phasePrefill)

	start := r.Now()
	if e.traced {
		for left := rc.MeasureTxs; left > 0; left -= rc.Config.Cores {
			t := time.Now()
			r.RunTxs(min(left, rc.Config.Cores))
			rp.calls = append(rp.calls, time.Since(t))
		}
	} else {
		r.RunTxs(rc.MeasureTxs)
	}
	rp.measure += time.Since(rp.last)
	rp.lap(phaseMeasure)
	rp.mallocs += mallocs() - m0

	ctl.SyncStats()
	st := *ctl.Stats()
	st.Cycles = r.Now() - start
	st.Transactions = int64(rc.MeasureTxs)
	return st, r, nil
}

// gmean is the geometric mean, 0 for no values or a non-positive one.
func gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// statsValues sets the modeled per-layer metrics that controller
// statistics give, normalised per measured op.
func statsValues(v map[string]float64, st *stats.Stats, ops int64) {
	per := func(x int64) float64 { return ratio(float64(x), float64(ops)) }
	v["nvm.data_writes_per_op"] = per(st.Writes(stats.WriteData))
	v["nvm.ctr_writes_per_op"] = per(st.Writes(stats.WriteCounter))
	v["nvm.mac_writes_per_op"] = per(st.Writes(stats.WriteMAC))
	v["nvm.pcb_writes_per_op"] = per(st.Writes(stats.WritePCB))
	v["nvm.tree_writes_per_op"] = per(st.Writes(stats.WriteTree))
	v["nvm.reads_per_op"] = per(st.NVMReads)
	v["cache.ctr_hit_rate"] = st.CtrHitRate()
	v["cache.mac_hit_rate"] = st.MACHitRate()
	v["cache.mt_hit_rate"] = st.MTHitRate()
	v["pub.pcb_merge_rate"] = st.PCBMergeRate()
	if st.TotalEvicts() > 0 {
		v["pub.evict_nowrite_share"] = 1 - st.EvictShare(stats.EvictWrittenBack)
	}
	v["pub.entry_evictions_per_op"] = per(st.PUBEntryEvictions)
	v["wpq.stall_cycles_per_op"] = per(st.WPQStallCycles)
	v["wpq.coalesced_per_op"] = per(st.WPQCoalesced)
	v["ctr.overflows_per_kop"] = 1000 * per(st.CtrOverflows)
}

// spanTarget is the benchmark's boundary span around the target layer:
// it forwards every call to the target under test, records each
// measured op's modeled latency (completion − arrival) and, when timed,
// the host time of each call.
type spanTarget struct {
	loadgen.SpanTarget
	measuring bool
	timed     bool
	lat       []int64
	readHost  time.Duration
	writeHost time.Duration
	calls     []time.Duration
}

func (t *spanTarget) begin() time.Time {
	if t.timed && t.measuring {
		return time.Now()
	}
	return time.Time{}
}

func (t *spanTarget) end(start time.Time, arrival, done int64, err error, total *time.Duration) {
	if !t.measuring {
		return
	}
	if err == nil {
		t.lat = append(t.lat, done-arrival)
	}
	if t.timed {
		d := time.Since(start)
		*total += d
		t.calls = append(t.calls, d)
	}
}

func (t *spanTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	start := t.begin()
	done, err := t.SpanTarget.Write(arrival, addr, data)
	t.end(start, arrival, done, err, &t.writeHost)
	return done, err
}

func (t *spanTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	start := t.begin()
	done, err := t.SpanTarget.Read(arrival, addr, dst)
	t.end(start, arrival, done, err, &t.readHost)
	return done, err
}

func (t *spanTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	start := t.begin()
	done, err := t.SpanTarget.WriteSpan(arrival, addr, data, span)
	t.end(start, arrival, done, err, &t.writeHost)
	return done, err
}

func (t *spanTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	start := t.begin()
	done, err := t.SpanTarget.ReadSpan(arrival, addr, dst, span)
	t.end(start, arrival, done, err, &t.readHost)
	return done, err
}

// openSystem is the open-loop system under test: one controller, or a
// pool of controller shards.
type openSystem struct {
	ct   *loadgen.ControllerTarget
	pool *engine.Pool
}

func (s openSystem) target() loadgen.SpanTarget {
	if s.pool != nil {
		return loadgen.NewPoolTarget(s.pool)
	}
	return s.ct
}

// stats returns the pooled statistics and the data writes of each shard
// (a lone controller is one shard).
func (s openSystem) stats() (stats.Stats, []int64, error) {
	if s.pool == nil {
		st := s.ct.Stats()
		return st, []int64{st.Writes(stats.WriteData)}, nil
	}
	st, err := s.pool.Stats()
	if err != nil {
		return st, nil, err
	}
	data := make([]int64, s.pool.Shards())
	for i := range data {
		sh, err := s.pool.ShardStats(i)
		if err != nil {
			return st, nil, err
		}
		data[i] = sh.Writes(stats.WriteData)
	}
	return st, data, nil
}

// read reads back one block after the measured phase.
func (s openSystem) read(addr int64, dst []byte) error {
	if s.pool == nil {
		return catch(func() error {
			_, err := s.ct.Read(s.ct.Now(), addr, dst)
			return err
		})
	}
	got, err := s.pool.Read(addr, len(dst))
	copy(dst, got)
	return err
}

// runOpen is one rep of an open-loop workload: a named loadgen scenario
// against one controller (shards 0) or a pool of shards of machine cfg,
// warmed with warmupOps unmeasured ops before ops measured ones.
// Arrivals are modeled cycles; the simulator runs as fast as it can, so
// the generator is never late. The driver calls run under catch: a
// controller target panics on an integrity violation, which must count
// as failed ops, not end the process.
func runOpen(e *env, scenario string, shards int, cfg config.Config, ops int64) *rep {
	rp := newRep()
	rp.ops = ops

	e.prof.start()
	defer e.prof.stop()
	var sys openSystem
	if shards == 0 {
		ctl, err := core.New(cfg)
		if err != nil {
			rp.fail(ops, "build: %v", err)
			return rp
		}
		sys.ct = loadgen.NewControllerTarget(ctl)
	} else {
		p, err := engine.New(cfg, shards)
		if err != nil {
			rp.fail(ops, "build: %v", err)
			return rp
		}
		// Shutdown stops and joins the shard goroutines; the clean image
		// it returns is not needed once the rep's checks are done.
		defer p.Shutdown()
		sys.pool = p
	}
	scn, err := loadgen.ScenarioByName(scenario)
	if err != nil {
		rp.fail(ops, "%v", err)
		return rp
	}
	scn.Seed = e.seed
	scn.Ops = e.sc.warmupOps + ops
	tgt := &spanTarget{SpanTarget: sys.target(), timed: e.traced}
	d, err := loadgen.NewDriver(scn, tgt, cfg, nil, loadgen.Options{TrackGolden: true, Attribution: e.traced})
	if err != nil {
		rp.fail(ops, "driver: %v", err)
		return rp
	}
	rp.lap(phaseBuild)
	if err := catch(func() error { _, err := d.RunOps(e.sc.warmupOps); return err }); err != nil {
		rp.fail(ops, "warm-up: %v", err)
		return rp
	}
	rp.lap(phaseWarmup)

	before, shardsBefore, err := sys.stats()
	if err != nil {
		rp.fail(ops, "stats: %v", err)
		return rp
	}
	stagesBefore := stageTotals(d)
	tgt.lat = make([]int64, 0, ops)
	tgt.measuring = true
	m0 := mallocs()
	rp.lap(phasePrefill)
	var n int64
	err = catch(func() (err error) { n, err = d.RunOps(ops); return err })
	rp.measure = time.Since(rp.last)
	rp.lap(phaseMeasure)
	rp.mallocs = mallocs() - m0
	tgt.measuring = false
	e.prof.stop()
	if err != nil {
		rp.fail(ops-n, "measure: %v", err)
	}

	after, shardsAfter, err := sys.stats()
	if err != nil {
		rp.fail(0, "stats: %v", err)
	}
	delta := after.Sub(before)
	v := rp.values
	v["nvm_writes_per_op"] = ratio(float64(delta.TotalWrites()), float64(ops))
	statsValues(v, &delta, ops)
	sort.Slice(tgt.lat, func(i, j int) bool { return tgt.lat[i] < tgt.lat[j] })
	v["model.lat_p50_cycles"] = float64(nearestRank(tgt.lat, 0.5))
	v["model.lat_p9999_cycles"] = float64(nearestRank(tgt.lat, 0.9999))
	if len(shardsAfter) == len(shardsBefore) {
		for i := range shardsAfter {
			shardsAfter[i] -= shardsBefore[i]
		}
		v["engine.shard_write_imbalance"] = imbalance(shardsAfter)
	}
	if e.traced {
		stages := stageTotals(d)
		var total int64
		for i := range stages {
			stages[i] -= stagesBefore[i]
			total += stages[i]
		}
		for i, s := range stageNames {
			v["stage."+s+"_pct"] = 100 * ratio(float64(stages[i]), float64(total))
		}
		m := float64(rp.measure)
		v["target.read_pct"] = 100 * float64(tgt.readHost) / m
		v["target.write_pct"] = 100 * float64(tgt.writeHost) / m
		v["loadgen.gen_pct"] = 100 * float64(rp.measure-tgt.readHost-tgt.writeHost) / m
		rp.calls = tgt.calls
	}

	// Every block written, warm-up included, must read back its last
	// acknowledged payload.
	buf := make([]byte, cfg.BlockSize)
	for addr, want := range d.Golden() {
		if err := sys.read(addr, buf[:len(want)]); err != nil {
			rp.fail(1, "read back %#x: %v", addr, err)
		} else if !bytes.Equal(buf[:len(want)], want) {
			rp.fail(1, "read back %#x: payload differs from the last write", addr)
		}
	}
	rp.lap(phaseCheck)
	return rp
}

// stageTotals returns the driver's cumulative per-stage attribution
// cycles (all zero unless attribution is on).
func stageTotals(d *loadgen.Driver) [obs.NumStages]int64 {
	a, err := d.Attribution()
	if err != nil {
		return [obs.NumStages]int64{}
	}
	return a.Aggregate.Stages
}

// imbalance is the max/mean of per-shard counts (1 when balanced).
func imbalance(counts []int64) float64 {
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	return ratio(float64(max)*float64(len(counts)), float64(sum))
}

// crashConfig is the crash-recover machine: Thoth WTSC with a large PUB
// whose eviction threshold is raised to capacity, so the ring can fill
// to crashFill (the controller still reserves the PCB's crash-flush
// headroom).
func crashConfig(sc scale, seed int64) config.Config {
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = sc.crashPUB
	cfg.PUBEvictFraction = 1.0
	cfg.Seed = seed
	return cfg
}

// splitmix64 advances a splitmix64 state and returns the next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// payload fills dst with the plaintext of write number seq.
func payload(dst []byte, seed, seq int64) {
	x := uint64(seed)<<32 ^ uint64(seq)
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], splitmix64(&x))
	}
}

// fillAndCrash persists seeded random writes over a working set of
// blocks until the PUB reaches crashFill, then crashes the controller.
// It returns the number of the last write to each block (-1 if none).
func fillAndCrash(ctl *core.Controller, cfg config.Config, seed, blocks int64) ([]int64, error) {
	last := make([]int64, blocks)
	for i := range last {
		last[i] = -1
	}
	bs := int64(cfg.BlockSize)
	base := ctl.Layout().DataBase
	buf := make([]byte, bs)
	limit := 4 * cfg.PUBEntries()
	x := uint64(seed)
	var now int64
	for seq := int64(0); ctl.PUBOccupancy() < crashFill; seq++ {
		if seq > limit {
			return nil, fmt.Errorf("PUB stuck at occupancy %.3f after %d writes", ctl.PUBOccupancy(), seq)
		}
		b := int64(splitmix64(&x) % uint64(blocks))
		payload(buf, seed, seq)
		now = ctl.PersistBlock(now, base+b*bs, buf)
		last[b] = seq
	}
	return last, ctl.Crash(now)
}

// runCrash is one rep of crash-recover: fill and crash a controller,
// then recover clones of its image with the serial Recover (the
// measured ops: one per PUB entry replayed) and with RecoverParallel.
// The clones are not timed. Both recovered images must be identical,
// verify against the persisted root, and read back every block's last
// write after reopening.
func runCrash(e *env) *rep {
	rp := newRep()
	cfg := crashConfig(e.sc, e.seed)

	e.prof.start()
	ctl, err := core.New(cfg)
	if err != nil {
		e.prof.stop()
		rp.fail(1, "build: %v", err)
		return rp
	}
	rp.lap(phaseBuild)
	last, err := fillAndCrash(ctl, cfg, e.seed, e.sc.crashBlocks)
	e.prof.stop()
	rp.lap(phasePopulate)
	if err != nil {
		rp.fail(1, "crash image: %v", err)
		return rp
	}
	img := ctl.Device()
	serial := img.Clone()
	w0, r0 := serial.TotalWrites(), serial.TotalReads()
	m0 := mallocs()
	rp.lap(phaseCheck)

	e.prof.start()
	srep, serr := recovery.Recover(cfg, serial)
	rp.measure = time.Since(rp.last)
	e.prof.stop()
	rp.lap(phaseMeasure)
	rp.mallocs = mallocs() - m0
	par := img.Clone()
	rp.lap(phaseCheck)

	e.prof.start()
	prep, perr := recovery.RecoverParallel(cfg, par, recovery.RecoverOpts{Workers: recoveryWorkers})
	parWall := time.Since(rp.last)
	e.prof.stop()
	rp.lap(phaseMeasure)

	if serr != nil || srep == nil {
		rp.ops = 1
		rp.fail(1, "serial recovery: %v", serr)
		return rp
	}
	entries := srep.PUBEntries
	rp.ops = entries
	switch {
	case !srep.RootVerified:
		rp.fail(entries, "serial recovery: root not verified")
	case perr != nil:
		rp.fail(entries, "parallel recovery: %v", perr)
	case !srep.CountsEqual(prep):
		rp.fail(entries, "parallel recovery report differs from serial: %v vs %v", prep, srep)
	case !serial.Equal(par):
		rp.fail(entries, "parallel recovery image differs from serial")
	}
	if bad, err := readBack(cfg, serial, e.seed, last); err != nil {
		rp.fail(max(bad, 1), "read back after reopen: %v", err)
	}
	rp.lap(phaseCheck)

	v := rp.values
	per := func(x int64) float64 { return ratio(float64(x), float64(entries)) }
	v["nvm_writes_per_op"] = per(serial.TotalWrites() - w0)
	v["nvm.ctr_writes_per_op"] = per(srep.MergedCtr)
	v["nvm.mac_writes_per_op"] = per(srep.MergedMAC)
	v["nvm.reads_per_op"] = per(serial.TotalReads() - r0)
	v["recovery.entries"] = float64(entries)
	v["recovery.merged_ctr"] = float64(srep.MergedCtr)
	v["recovery.merged_mac"] = float64(srep.MergedMAC)
	v["recovery.skipped_stale"] = float64(srep.SkippedStale)
	v["model.recovery_mcycles"] = float64(srep.EstimatedCycles) / 1e6
	if prep != nil {
		entries := make([]int64, len(prep.Shards))
		for i, sh := range prep.Shards {
			entries[i] = sh.Entries
		}
		v["recovery.shard_imbalance"] = imbalance(entries)
	}
	if e.traced && prep != nil {
		p := float64(parWall)
		v["recovery.parallel_speedup"] = ratio(float64(rp.measure), p)
		v["recovery.scan_pct"] = 100 * float64(prep.ScanWallNS) / p
		v["recovery.merge_pct"] = 100 * float64(prep.MergeWallNS) / p
		v["recovery.rebuild_pct"] = 100 * float64(prep.RebuildWallNS) / p
		v["recovery.verify_pct"] = 100 * float64(prep.VerifyWallNS) / p
		rp.calls = []time.Duration{rp.measure, parWall}
	}
	return rp
}

// readBack reopens a recovered image and checks that every block reads
// back the payload of its last write. It returns how many blocks failed
// and the first failure.
func readBack(cfg config.Config, dev *nvm.Device, seed int64, last []int64) (int64, error) {
	ctl, err := core.Attach(cfg, dev)
	if err != nil {
		return 0, err
	}
	bs := int64(cfg.BlockSize)
	base := ctl.Layout().DataBase
	want := make([]byte, bs)
	var (
		bad   int64
		first error
		now   int64
	)
	for b, seq := range last {
		if seq < 0 {
			continue
		}
		addr := base + int64(b)*bs
		payload(want, seed, seq)
		err := catch(func() error {
			var got []byte
			now, got = ctl.ReadBlock(now, addr)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("block %#x differs from its last write", addr)
			}
			return nil
		})
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

package main

import (
	"math"
	"sort"
)

// Clocks. A host metric measures the simulator on the machine running
// it, so it is noisy and compared within a relative bound. A modeled
// metric measures the simulated machine; it is a deterministic function
// of the seed, so two runs of one commit must agree bit for bit.
const (
	hostClock    = "host"
	modeledClock = "modeled"
)

// metricDef declares one reported metric. endToEnd metrics are printed
// by untraced runs, the rest (the per-layer set) by traced runs; the
// names, units and directions must match BENCHMARK.json, which
// TestCatalogMatchesBenchmarkJSON checks.
type metricDef struct {
	name     string
	unit     string
	better   string // "lower" or "higher"
	clock    string
	endToEnd bool
}

// layers are the buckets host CPU-profile samples are charged to: every
// repro/internal package the workloads reach, the benchmark's own code,
// the Go runtime (garbage collection and scheduling with no repository
// frame on the stack), and other for packages added after this list.
var layers = []string{
	"bitpack", "bmt", "cache", "config", "core", "crypt", "ctr", "engine",
	"harness", "layout", "llc", "loadgen", "macs", "metrics", "nvm", "obs",
	"pub", "recovery", "scheme", "sim", "stats", "workload", "wpq",
	"bench", "runtime", "other",
}

// stageNames are the loadgen attribution stages in obs.Stages order.
var stageNames = []string{"queue", "fetch", "crypto", "tree", "wpq", "persist"}

// Phases of one rep, in order. Their wall times sum to the rep's.
const (
	phaseBuild    = iota // construct the machine
	phasePopulate        // fill it: benchmark population, or the PUB fill before a crash
	phaseWarmup          // unmeasured operations that warm caches and the PUB
	phasePrefill         // PUB prefill, and the statistics reset or snapshot before measuring
	phaseMeasure         // the measured phase
	phaseCheck           // correctness checks and image clones (never timed)
	numPhases
)

var phaseNames = [numPhases]string{"build", "populate", "warmup", "prefill", "measure", "check"}

func host(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, clock: hostClock}
}

func modeled(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, clock: modeledClock}
}

// catalog lists every metric the benchmark reports, in print order.
func catalog() []metricDef {
	defs := []metricDef{
		{name: "setup_s", unit: "s", better: "lower", clock: hostClock, endToEnd: true},
		{name: "ops_per_s", unit: "op/s", better: "higher", clock: hostClock, endToEnd: true},
		{name: "allocs_per_op", unit: "allocs", better: "lower", clock: hostClock, endToEnd: true},
		{name: "peak_rss_mb", unit: "MiB", better: "lower", clock: hostClock, endToEnd: true},
		{name: "nvm_writes_per_op", unit: "blocks", better: "lower", clock: modeledClock, endToEnd: true},
	}
	for _, l := range layers {
		defs = append(defs, host(l+".cpu_pct", "%", "lower"))
	}
	defs = append(defs,
		host("profile.cpu_us_per_op", "us/op", "lower"),
		host("profile.samples", "count", "lower"),
	)
	for _, p := range phaseNames {
		defs = append(defs, host("phase."+p+"_pct", "%", "lower"))
	}
	defs = append(defs,
		host("call.us_p50", "us", "lower"),
		host("call.us_p99", "us", "lower"),
		host("target.read_pct", "%", "lower"),
		host("target.write_pct", "%", "lower"),
		host("loadgen.gen_pct", "%", "lower"),
		host("recovery.parallel_speedup", "x", "higher"),
		host("recovery.scan_pct", "%", "lower"),
		host("recovery.merge_pct", "%", "lower"),
		host("recovery.rebuild_pct", "%", "lower"),
		host("recovery.verify_pct", "%", "lower"),
		host("trace.overhead_pct", "%", "lower"),

		modeled("nvm.data_writes_per_op", "blocks/op", "lower"),
		modeled("nvm.ctr_writes_per_op", "blocks/op", "lower"),
		modeled("nvm.mac_writes_per_op", "blocks/op", "lower"),
		modeled("nvm.pcb_writes_per_op", "blocks/op", "lower"),
		modeled("nvm.tree_writes_per_op", "blocks/op", "lower"),
		modeled("nvm.reads_per_op", "blocks/op", "lower"),
		modeled("cache.ctr_hit_rate", "ratio", "higher"),
		modeled("cache.mac_hit_rate", "ratio", "higher"),
		modeled("cache.mt_hit_rate", "ratio", "higher"),
		modeled("pub.pcb_merge_rate", "ratio", "higher"),
		modeled("pub.evict_nowrite_share", "ratio", "higher"),
		modeled("pub.entry_evictions_per_op", "entries/op", "lower"),
		modeled("wpq.stall_cycles_per_op", "cycles/op", "lower"),
		modeled("wpq.coalesced_per_op", "writes/op", "higher"),
		modeled("ctr.overflows_per_kop", "count/kop", "lower"),
	)
	for _, s := range stageNames {
		defs = append(defs, modeled("stage."+s+"_pct", "%", "lower"))
	}
	defs = append(defs,
		modeled("engine.shard_write_imbalance", "ratio", "lower"),
		modeled("recovery.entries", "count", "lower"),
		modeled("recovery.merged_ctr", "count", "lower"),
		modeled("recovery.merged_mac", "count", "lower"),
		modeled("recovery.skipped_stale", "count", "lower"),
		modeled("recovery.shard_imbalance", "ratio", "lower"),
		modeled("model.speedup", "x", "higher"),
		modeled("model.write_ratio", "ratio", "lower"),
		modeled("model.paper_err_pct", "%", "lower"),
		modeled("model.lat_p50_cycles", "cycles", "lower"),
		modeled("model.lat_p9999_cycles", "cycles", "lower"),
		modeled("model.recovery_mcycles", "Mcycles", "lower"),
	)
	return defs
}

// errorRate is reported beside the catalog in the human-readable lines
// and the results file: failed / attempted operations. It is not a
// BENCHMARK.json metric because a healthy run reads exactly 0; the
// contract line carries the same facts as "attempted" and "failed".
var errorRate = modeled("error_rate", "fraction", "lower")

// series is one metric of one workload over the reps of a run.
type series struct {
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	Better string    `json:"better"`
	Reps   []float64 `json:"reps"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func newSeries(d metricDef, reps []float64) *series {
	s := &series{Unit: d.unit, Clock: d.clock, Better: d.better, Reps: reps, N: len(reps)}
	s.Q1, s.Median, s.Q3 = quartiles(reps)
	return s
}

// spread is the interquartile range as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles returns the first quartile, median and third quartile. The
// quartiles follow Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so spreads read the same as a script computing
// them from the results file; with fewer than two values all three are
// that value.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	if ld%2 == 1 {
		med = d[ld/2]
	} else {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	if ld < 2 {
		return d[0], med, d[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), med, q(3)
}

// nearestRank returns the exact q-quantile of sorted values by the
// nearest-rank rule: the smallest value with at least q of the values at
// or below it.
func nearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

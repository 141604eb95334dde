// Command bench is the repository benchmark. It runs one named workload
// per process, repeats it for a fixed time, checks every output, and
// prints one "metric workload value unit" line per metric followed by a
// one-line JSON summary. Build and run it from the repository root with
//
//	bash bench/run.sh --workload fig8-closed --seed 1 --seconds 15 --trace 0
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics: a CPU profile charged to the
// repository's packages, boundary spans the benchmark times around its
// calls into each layer, and the modeled per-layer counts. -workload all
// runs every workload in its own process and merges their results;
// -compare applies the BENCHMARK.json bounds to two results files.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest reps an untraced run makes, so every median has
// a middle value; a traced run makes at least one untraced and one
// traced rep.
const minReps = 3

// runBudget stops a run before starting a rep that would push it past
// this wall time, whatever -seconds asks for.
const runBudget = 150 * time.Second

// results is the results file: every metric of every workload run.
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Trace     int                        `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's run.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]*series `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "run reps until this many seconds have passed")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end ones")
	out := fs.String("out", "", "results file (default .bench_build/results-<workload>-seed<seed>-trace<trace>.json)")
	compare := fs.Bool("compare", false, "compare two results files under the "+benchmarkJSON+" bounds: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
		return 2
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", fmt.Sprintf("results-%s-seed%d-trace%d.json", *name, *seed, *trace))
	}
	res := &results{Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]*workloadResult{}}
	if *name == "all" {
		if err := runAll(res, *out, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printLines(stdout, res)
		for _, w := range res.Workloads {
			if !w.Correct {
				return 1
			}
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	wr := runWorkload(w, defaultScale(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res.Workloads[w.name] = wr
	if err := writeResults(*out, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printLines(stdout, res)
	if err := printSummary(stdout, wr, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, e := range wr.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	if !wr.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// runWorkload repeats a workload until the run has lasted the given
// time and made its minimum reps, then aggregates the reps. A traced run
// alternates untraced and traced reps, so its trace overhead compares
// reps of the same process.
func runWorkload(w workloadDef, sc scale, seed int64, seconds time.Duration, trace bool) *workloadResult {
	var prof *profiler
	if trace {
		prof = newProfiler()
	}
	var plain, traced []*rep
	start := time.Now()
	for {
		e := &env{seed: seed, sc: sc}
		if trace && len(traced) < len(plain) {
			e.traced, e.prof = true, prof
		}
		runtime.GC() // every rep starts from the same collected heap
		t := time.Now()
		r := w.run(e)
		took := time.Since(t)
		if e.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minReps
		if trace {
			enough = len(traced) > 0 && len(traced) == len(plain)
		}
		elapsed := time.Since(start)
		if (enough && elapsed >= seconds) || elapsed+took > runBudget {
			break
		}
	}
	return aggregate(plain, traced, prof)
}

// aggregate turns the reps of a run into a workload result.
func aggregate(plain, traced []*rep, prof *profiler) *workloadResult {
	wr := &workloadResult{Correct: true, Metrics: map[string]*series{}}
	all := append(append([]*rep(nil), plain...), traced...)
	for _, r := range all {
		wr.Attempted += r.ops
		wr.Failed += r.failed
		for _, e := range r.errs {
			if len(wr.Errors) < 10 {
				wr.Errors = append(wr.Errors, e)
			}
		}
	}
	defs := catalog()
	// Modeled values are a function of the seed: every rep, traced or
	// not, must agree on each one it reports.
	for _, d := range defs {
		if d.clock != modeledClock {
			continue
		}
		ref, seen := 0.0, false
		for _, r := range all {
			if v, ok := r.values[d.name]; ok {
				if seen && v != ref {
					wr.Errors = append(wr.Errors, fmt.Sprintf("%s differs between reps: %v vs %v", d.name, ref, v))
				}
				ref, seen = v, true
			}
		}
	}
	for _, d := range defs {
		switch {
		case d.name == "setup_s":
			wr.set(d, perRep(plain, func(r *rep) float64 { return r.setup().Seconds() }))
		case d.name == "ops_per_s":
			wr.set(d, perRep(plain, opsPerS))
		case d.name == "allocs_per_op":
			wr.set(d, perRep(plain, func(r *rep) float64 { return ratio(float64(r.mallocs), float64(r.ops)) }))
		case d.name == "peak_rss_mb":
			mib, err := peakRSSMiB()
			if err != nil {
				wr.Errors = append(wr.Errors, err.Error())
			}
			wr.set(d, []float64{mib})
		case d.clock == modeledClock:
			// Untraced reps report the modeled values they compute;
			// traced runs report every per-layer one, 0 where the
			// workload does not exercise the layer.
			if _, ok := plain[0].values[d.name]; ok || d.endToEnd {
				wr.set(d, perRep(plain, value(d.name)))
			} else if len(traced) > 0 {
				wr.set(d, perRep(traced, value(d.name)))
			}
		}
	}
	wr.Metrics[errorRate.name] = newSeries(errorRate, []float64{ratio(float64(wr.Failed), float64(wr.Attempted))})
	if len(traced) > 0 {
		traceMetrics(wr, plain, traced, prof)
	}
	if wr.Failed > 0 || len(wr.Errors) > 0 {
		wr.Correct = false
	}
	return wr
}

// set records a metric's per-rep values; a value that is not finite is
// recorded as 0 and makes the run incorrect.
func (wr *workloadResult) set(d metricDef, vs []float64) {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			wr.Errors = append(wr.Errors, fmt.Sprintf("%s is not finite", d.name))
			vs[i] = 0
		}
	}
	wr.Metrics[d.name] = newSeries(d, vs)
}

// perRep maps reps to one value each.
func perRep(reps []*rep, f func(*rep) float64) []float64 {
	vs := make([]float64, 0, len(reps))
	for _, r := range reps {
		vs = append(vs, f(r))
	}
	return vs
}

func opsPerS(r *rep) float64 { return ratio(float64(r.ops), r.measure.Seconds()) }

// value reads a rep value by name, 0 where the rep has none.
func value(name string) func(*rep) float64 {
	return func(r *rep) float64 { return r.values[name] }
}

// traceMetrics adds the host per-layer metrics of a traced run.
func traceMetrics(wr *workloadResult, plain, traced []*rep, prof *profiler) {
	if prof.err != nil {
		wr.Errors = append(wr.Errors, prof.err.Error())
	}
	total := prof.totalNS()
	var ops int64
	for _, r := range traced {
		ops += r.ops
	}
	for _, d := range catalog() {
		if d.clock != hostClock || d.endToEnd {
			continue
		}
		switch {
		case strings.HasSuffix(d.name, ".cpu_pct"):
			l := strings.TrimSuffix(d.name, ".cpu_pct")
			wr.set(d, []float64{100 * ratio(float64(prof.ns[l]), float64(total))})
		case d.name == "profile.cpu_us_per_op":
			wr.set(d, []float64{ratio(float64(total)/1e3, float64(ops))})
		case d.name == "profile.samples":
			wr.set(d, []float64{float64(prof.samples)})
		case strings.HasPrefix(d.name, "phase."):
			p := phaseIndex(strings.TrimSuffix(strings.TrimPrefix(d.name, "phase."), "_pct"))
			wr.set(d, perRep(traced, func(r *rep) float64 {
				var sum time.Duration
				for _, x := range r.phases {
					sum += x
				}
				return 100 * ratio(float64(r.phases[p]), float64(sum))
			}))
		case d.name == "call.us_p50", d.name == "call.us_p99":
			q := 0.5
			if d.name == "call.us_p99" {
				q = 0.99
			}
			wr.set(d, perRep(traced, func(r *rep) float64 { return callQuantile(r.calls, q) }))
		case d.name == "trace.overhead_pct":
			wr.set(d, []float64{100 * (1 - ratio(median(perRep(traced, opsPerS)), median(perRep(plain, opsPerS))))})
		default:
			wr.set(d, perRep(traced, value(d.name)))
		}
	}
}

func phaseIndex(name string) int {
	for i, n := range phaseNames {
		if n == name {
			return i
		}
	}
	return -1
}

// callQuantile returns the nearest-rank q-quantile of call durations in
// microseconds.
func callQuantile(calls []time.Duration, q float64) float64 {
	ns := make([]int64, len(calls))
	for i, c := range calls {
		ns[i] = int64(c)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(nearestRank(ns, q)) / 1e3
}

// peakRSSMiB is the process's peak resident set, VmHWM in
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// printLines prints one "metric workload value unit" line per metric, in
// catalog order.
func printLines(w io.Writer, res *results) {
	var names []string
	for n := range res.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	defs := append(catalog(), errorRate)
	for _, n := range names {
		for _, d := range defs {
			if s, ok := res.Workloads[n].Metrics[d.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", d.name, n, strconv.FormatFloat(s.Median, 'g', -1, 64), d.unit)
			}
		}
	}
}

// summaryMetric is one metric of the closing JSON line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the closing JSON line: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func printSummary(w io.Writer, wr *workloadResult, trace bool) error {
	m := map[string]summaryMetric{}
	for _, d := range catalog() {
		if d.endToEnd == trace {
			continue
		}
		s, ok := wr.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		m[d.name] = summaryMetric{Value: s.Median, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResults(path string, res *results) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// runAll runs every workload in its own process, one after another, so
// each has its own heap and peak RSS, and merges their results into out.
// The children's own output goes to stderr as progress. A child that
// exits non-zero after writing its results reported an incorrect run,
// which the merged results carry. One that wrote none is an error, and
// the merged results record its workload as incorrect with no metrics.
func runAll(res *results, out string, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range workloads() {
		part := fmt.Sprintf("%s.%s.part", out, w.name)
		os.Remove(part)
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(res.Seed, 10),
			"-seconds", strconv.Itoa(res.Seconds), "-trace", strconv.Itoa(res.Trace), "-out", part)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		runErr := cmd.Run()
		got, err := readResults(part)
		if err != nil {
			msg := fmt.Sprintf("no results: %v (%v)", err, runErr)
			res.Workloads[w.name] = &workloadResult{Errors: []string{msg}, Metrics: map[string]*series{}}
			errs = append(errs, fmt.Errorf("%s: %s", w.name, msg))
			continue
		}
		os.Remove(part)
		for n, wr := range got.Workloads {
			res.Workloads[n] = wr
		}
	}
	if err := writeResults(out, res); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyScale runs every workload in well under a second.
func tinyScale() scale {
	return scale{
		fig8:        harness.Scale{WarmupTxs: 40, MeasureTxs: 200, SetupKeys: 256, PUBBytes: 64 << 10, MemBytes: 1 << 30, LLCBytes: 1 << 20},
		openMem:     64 << 20,
		warmupOps:   500,
		steadyOps:   2000,
		burstOps:    2000,
		crashPUB:    64 << 10,
		crashBlocks: 2048,
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	f, err := readBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	type entry struct{ unit, better string }
	declared := map[string]entry{}
	endToEnd := map[string]bool{}
	for _, m := range f.EndToEnd {
		declared[m.Name] = entry{m.Unit, m.Better}
		endToEnd[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		declared[m.Name] = entry{m.Unit, m.Better}
	}
	if len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(f.PerLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	defs := catalog()
	if len(defs) != len(declared) {
		t.Errorf("catalog has %d metrics, BENCHMARK.json %d", len(defs), len(declared))
	}
	for _, d := range defs {
		got, ok := declared[d.name]
		switch {
		case !ok:
			t.Errorf("%s is not in BENCHMARK.json", d.name)
		case got != entry{d.unit, d.better}:
			t.Errorf("%s: BENCHMARK.json says %v, catalog %s/%s", d.name, got, d.unit, d.better)
		case endToEnd[d.name] != d.endToEnd:
			t.Errorf("%s: end-to-end in BENCHMARK.json %v, in catalog %v", d.name, endToEnd[d.name], d.endToEnd)
		}
		if !valid.MatchString(d.name) {
			t.Errorf("%s: not a valid metric name", d.name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsReportEveryMetric runs each workload traced at tiny
// scale: the run must be correct and print every metric of both summary
// lines. A traced run makes an untraced and a traced rep, each building
// its machine afresh, and aggregate fails the run unless both report
// every modeled value identically.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			wr := runWorkload(w, tinyScale(), 1, 0, true)
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", wr.Correct, wr.Attempted, wr.Failed, wr.Errors)
			}
			if n := wr.Metrics["setup_s"].N; n < 1 || wr.Metrics["phase.measure_pct"].N != n {
				t.Fatalf("%d untraced reps, %d traced", n, wr.Metrics["phase.measure_pct"].N)
			}
			for _, trace := range []bool{false, true} {
				if err := printSummary(discard{}, wr, trace); err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestPhaseSplitMatchesRun pins runPhases, untraced and chunked, to
// harness.Run for every fig8-closed configuration at QuickScale.
func TestPhaseSplitMatchesRun(t *testing.T) {
	sc := tinyScale()
	sc.fig8 = harness.QuickScale()
	for _, wl := range workload.Names() {
		for _, s := range fig8Schemes {
			rc := fig8RunConfig(sc, s, wl, 1)
			res, err := harness.Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Stats
			want.LLCHits, want.LLCMisses = 0, 0
			for _, traced := range []bool{false, true} {
				got, _, err := runPhases(rc, &env{sc: sc, traced: traced}, newRep())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s/%v traced=%v: phase split gives\n%v\nharness.Run gives\n%v", wl, s, traced, &got, &want)
				}
			}
		}
	}
}

// TestLayerSharesSumToProfileTotal profiles crash-recover reps until the
// profile holds samples and checks that every sample is charged to
// exactly one declared layer.
func TestLayerSharesSumToProfileTotal(t *testing.T) {
	p := newProfiler()
	sc := tinyScale()
	sc.crashPUB, sc.crashBlocks = 1<<20, 1<<14
	e := &env{seed: 1, sc: sc, traced: true, prof: p}
	deadline := time.Now().Add(10 * time.Second)
	for p.samples < 20 && time.Now().Before(deadline) {
		runCrash(e)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.samples == 0 {
		t.Fatal("no profile samples")
	}
	var sum int64
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for l, ns := range p.ns {
		if !known[l] {
			t.Errorf("samples charged to undeclared layer %q", l)
		}
		sum += ns
	}
	if sum != p.totalNS() || sum <= 0 {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, p.totalNS())
	}
	wr := &workloadResult{Metrics: map[string]*series{}}
	traceMetrics(wr, []*rep{newRep()}, []*rep{newRep()}, p)
	var pct float64
	for _, l := range layers {
		pct += wr.Metrics[l+".cpu_pct"].Median
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Errorf("cpu_pct sums to %v", pct)
	}
}

func TestChargeLayer(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/aes.encryptBlock", "repro/internal/crypt.(*Engine).XorPad", "repro/internal/core.(*Controller).PersistBlock"}, "crypt"},
		{[]string{"runtime.mallocgc", "repro/internal/bitpack.Pack", "main.runCrash"}, "bitpack"},
		{[]string{"sort.Slice", "main.runOpen"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"repro/internal/newpkg.F"}, "other"},
	} {
		if got := chargeLayer(c.frames); got != c.want {
			t.Errorf("chargeLayer(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestFig8SeedOne checks that fig8-closed at seed 1 reproduces the
// Figure 8/9 128B WTSC column of experiments_output.txt (speedup gmean
// 1.134, write-ratio mean 0.711). The ten runs are independent, so the
// test runs them on two goroutines.
func TestFig8SeedOne(t *testing.T) {
	if testing.Short() {
		t.Skip("DefaultScale figure runs")
	}
	sc := defaultScale()
	names := workload.Names()
	out := make([][2]stats.Stats, len(names))
	errs := make([]error, len(names)*2)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i, s := j/2, j%2
				rc := fig8RunConfig(sc, fig8Schemes[s], names[i], 1)
				out[i][s], _, errs[j] = runPhases(rc, &env{sc: sc}, newRep())
			}
		}()
	}
	for j := range errs {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	var base, thoth []stats.Stats
	for j, err := range errs {
		if err != nil {
			t.Fatalf("%s/%v: %v", names[j/2], fig8Schemes[j%2], err)
		}
	}
	for _, pair := range out {
		base = append(base, pair[0])
		thoth = append(thoth, pair[1])
	}
	v := map[string]float64{}
	fig8Values(v, base, thoth)
	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	if got := round(v["model.speedup"]); got != 1.134 {
		t.Errorf("speedup %v, want 1.134", v["model.speedup"])
	}
	if got := round(v["model.write_ratio"]); got != 0.711 {
		t.Errorf("write ratio %v, want 0.711", v["model.write_ratio"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	host := func(better string, reps ...float64) *series {
		return newSeries(metricDef{unit: "s", better: better, clock: hostClock}, reps)
	}
	model := func(v float64) *series {
		return newSeries(metricDef{unit: "x", better: "higher", clock: modeledClock}, []float64{v})
	}
	for _, c := range []struct {
		name     string
		a, b     *series
		hasBound bool
		want     string
		fails    bool
	}{
		{"modeled equal", model(1.134), model(1.134), false, "same", false},
		{"modeled changed", model(1.134), model(1.135), false, "changed", true},
		{"within bound", host("lower", 10, 10, 10), host("lower", 10.5, 10.5, 10.5), true, "same", false},
		{"worse", host("lower", 10, 10, 10), host("lower", 12, 12, 12), true, "regression", true},
		{"higher is better", host("higher", 10, 10, 10), host("higher", 8, 8, 8), true, "regression", true},
		{"better", host("lower", 10, 10, 10), host("lower", 8, 8, 8), true, "better", false},
		{"noisy", host("lower", 5, 10, 15), host("lower", 12, 12, 12), true, "unresolved", false},
		{"no bound", host("lower", 10), host("lower", 20), false, "info", false},
	} {
		got, fails := verdict(c.a, c.b, 0.1, c.hasBound)
		if got != c.want || fails != c.fails {
			t.Errorf("%s: verdict %q fails=%v, want %q fails=%v", c.name, got, fails, c.want, c.fails)
		}
	}
}

// TestCompareMissing checks that a workload or metric the base run
// reports and the new run lacks fails the comparison, as a crashed child
// leaves it.
func TestCompareMissing(t *testing.T) {
	run := func(metrics ...string) *workloadResult {
		wr := &workloadResult{Correct: true, Metrics: map[string]*series{}}
		for _, m := range metrics {
			wr.Metrics[m] = newSeries(metricDef{unit: "s", better: "lower", clock: hostClock}, []float64{1, 1, 1})
		}
		return wr
	}
	set := func(ws map[string]*workloadResult) *results {
		return &results{Seed: 1, Workloads: ws}
	}
	bounds := map[string]float64{"setup_s": 0.1, "ops_per_s": 0.1}
	base := set(map[string]*workloadResult{"a": run("setup_s", "ops_per_s"), "b": run("setup_s")})
	for _, c := range []struct {
		name  string
		b     *results
		fails bool
		line  string
	}{
		{"same", set(map[string]*workloadResult{"a": run("setup_s", "ops_per_s"), "b": run("setup_s")}), false, ""},
		{"extra workload", set(map[string]*workloadResult{"a": run("setup_s", "ops_per_s"), "b": run("setup_s"), "c": run()}), false, ""},
		{"missing workload", set(map[string]*workloadResult{"a": run("setup_s", "ops_per_s")}), true, "workload b missing regression"},
		{"missing metric", set(map[string]*workloadResult{"a": run("setup_s"), "b": run("setup_s")}), true, "ops_per_s a 1 missing regression"},
	} {
		var out bytes.Buffer
		if got := compareResults(bounds, base, c.b, &out); got != c.fails {
			t.Errorf("%s: failed=%v, want %v\n%s", c.name, got, c.fails, out.String())
		}
		if c.line != "" && !strings.Contains(strings.Join(strings.Fields(out.String()), " "), c.line) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.line, out.String())
		}
	}
}

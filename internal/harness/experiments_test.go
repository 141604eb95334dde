package harness

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// tinyScale makes every experiment generator finish in well under a
// second so the whole report plumbing is exercised on each test run.
func tinyScale() Scale {
	return Scale{
		WarmupTxs:  60,
		MeasureTxs: 200,
		SetupKeys:  256,
		PUBBytes:   64 << 10,
		MemBytes:   1 << 30,
		LLCBytes:   1 << 20,
	}
}

// syncWriter guards the report buffer against parallel runs.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestEveryExperimentProducesAReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment plumbing")
	}
	cases := []struct {
		name string
		want []string
	}{
		{"3", []string{"Figure 3", "written-back", "stale-copy"}},
		{"8", []string{"Figure 8", "btree", "gmean"}},
		{"9", []string{"Figure 9", "Write-category breakdown"}},
		{"10", []string{"Figure 10", "tx=2048B"}},
		{"table2", []string{"Table II", "ciphertext"}},
		{"table3", []string{"Table III", "merged"}},
		{"11", []string{"Figure 11", "512k/1M"}},
		{"12", []string{"Figure 12", "WPQ=16"}},
		{"vf", []string{"Section V-F", "average"}},
		{"recovery", []string{"Section IV-D", "rootOK"}},
		{"eadr", []string{"ADR vs eADR", "eADR gain"}},
		{"pubsize", []string{"Ablation: PUB size", "written-back"}},
		{"arrangement", []string{"PCB arrangement", "after-WPQ"}},
	}
	out := &syncWriter{}
	e := NewExperiments(tinyScale(), out)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := e.ByName(tc.name); err != nil {
				t.Fatalf("experiment %s: %v", tc.name, err)
			}
		})
	}
	report := out.String()
	for _, tc := range cases {
		for _, want := range tc.want {
			if !strings.Contains(report, want) {
				t.Errorf("report missing %q (experiment %s)", want, tc.name)
			}
		}
	}

	// The simulation is deterministic, so the whole report is pinned
	// byte for byte: a drift in any figure cell, or in a report's
	// layout, is a diff against the committed golden. Regenerate with
	// EXPERIMENTS_UPDATE=1 after an intentional change.
	golden := filepath.Join("testdata", "experiments_golden.txt")
	if os.Getenv("EXPERIMENTS_UPDATE") == "1" {
		if err := os.WriteFile(golden, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (EXPERIMENTS_UPDATE=1 regenerates): %v", err)
	}
	if report != string(want) {
		t.Fatalf("experiment reports drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", report, want)
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	e := NewExperiments(tinyScale(), &syncWriter{})
	if err := e.ByName("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestExperimentCacheHits(t *testing.T) {
	out := &syncWriter{}
	e := NewExperiments(tinyScale(), out)
	cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
	rc := e.runConfig(cfg, "swap")
	a, err := e.runs([]RunConfig{rc})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.runs([]RunConfig{rc, rc})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] || b[0] != b[1] {
		t.Fatal("identical run configs must be memoized")
	}
}

// TestRunMemoKeysOnWholeConfig pins the memo key: a run that differs
// from a memoized one in any machine field gets its own simulation,
// here the LLC size and the hash latency behind the serial second-level
// MAC. The LLC shrinks rather than grows: at this scale btree's working
// set already fits the suite's 1 MiB LLC, so a larger one changes no
// cycle.
func TestRunMemoKeysOnWholeConfig(t *testing.T) {
	e := NewExperiments(tinyScale(), &syncWriter{})
	rc := e.runConfig(tinyScale().apply(config.Default()), "btree")
	def, err := e.runs([]RunConfig{rc})
	if err != nil {
		t.Fatal(err)
	}
	llc, hash := rc, rc
	llc.Config.LLCBytes = 64 << 10
	hash.Config.HashLatencyCycles *= 2
	got, err := e.runs([]RunConfig{llc, hash})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []RunConfig{llc, hash} {
		if got[i] == def[0] {
			t.Errorf("variant %d got the memoized default run", i)
		}
		direct, err := Run(v)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Stats.Cycles != direct.Stats.Cycles || direct.Stats.Cycles == def[0].Stats.Cycles {
			t.Errorf("variant %d: memo gives %d cycles, a direct Run %d, the default %d",
				i, got[i].Stats.Cycles, direct.Stats.Cycles, def[0].Stats.Cycles)
		}
	}
}

// TestReportRunCounts pins the runs a report executes on its own: each
// report runs only the cells it prints.
func TestReportRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 55 simulations")
	}
	for _, tc := range []struct {
		name string
		want int
	}{{"table3", 40}, {"eadr", 15}} {
		e := NewExperiments(tinyScale(), &syncWriter{})
		if err := e.ByName(tc.name); err != nil {
			t.Fatal(err)
		}
		if n := len(e.cache); n != tc.want {
			t.Errorf("%s executed %d runs, want %d", tc.name, n, tc.want)
		}
	}
}

// TestWorkersBelowOneRunsSerially: a driver with no workers (or a
// negative count) runs one simulation at a time instead of blocking
// forever or panicking.
func TestWorkersBelowOneRunsSerially(t *testing.T) {
	for _, w := range []int{0, -1} {
		e := NewExperiments(tinyScale(), &syncWriter{})
		e.Workers = w
		done := make(chan error, 1)
		go func() { done <- e.SecVF() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Workers=%d: %v", w, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("Workers=%d: report did not complete", w)
		}
	}
}

// TestStructLiteralExperiments: Experiments is public (as
// thoth.Experiments), so a driver built as a struct literal, without
// NewExperiments and its memo, must run a report, and print what the
// constructed driver prints.
func TestStructLiteralExperiments(t *testing.T) {
	var lit, built syncWriter
	if err := (&Experiments{Scale: tinyScale(), Out: &lit, Workers: 1}).SecVF(); err != nil {
		t.Fatal(err)
	}
	e := NewExperiments(tinyScale(), &built)
	e.Workers = 1
	if err := e.SecVF(); err != nil {
		t.Fatal(err)
	}
	if lit.String() == "" || lit.String() != built.String() {
		t.Fatalf("struct-literal report differs:\n%s\nwant:\n%s", lit.String(), built.String())
	}
}

func TestRunnerCrashMidStream(t *testing.T) {
	// Integration: drive a workload through the full runner, crash in
	// the middle, recover, and verify that all persisted data reads back
	// through a fresh controller.
	cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
	cfg.PUBBytes = 32 << 10
	r, err := NewRunner(RunConfig{Config: cfg, Workload: "rbtree", MeasureTxs: 1, SetupKeys: 512})
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	r.RunTxs(800)
	r.Controller().Crash(r.Now())
	rep, err := recovery.Recover(cfg, r.Controller().Device())
	if err != nil {
		t.Fatalf("recovery: %v (%s)", err, rep)
	}
	if !rep.RootVerified {
		t.Fatal("root must verify")
	}
}

func TestGmeanAndMean(t *testing.T) {
	got, err := gmean([]float64{2, 8})
	if err != nil {
		t.Fatalf("gmean(2,8): %v", err)
	}
	if got != 4 {
		t.Errorf("gmean(2,8) = %g, want 4", got)
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %g, want 2", got)
	}
	if mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestGmeanRejectsNonPositiveAndNonFinite(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{1, 0, 2},                 // zero cycles ratio: Log(0) = -Inf
		{1, -3},                   // negative
		{1, math.NaN()},           // poisoned upstream division
		{1, math.Inf(1)},          // division by zero cycles
		{2, 8, math.Inf(-1), 0.5}, // mixed
	}
	for _, vs := range bad {
		if g, err := gmean(vs); err == nil {
			t.Errorf("gmean(%v) = %g, want error", vs, g)
		}
	}
}

// TestPrefetchShortCircuitsOnError pins the cancellation behavior: one
// poisoned configuration at the head of a batch must stop the remaining
// matrix from executing instead of burning through every run before the
// error surfaces.
func TestPrefetchShortCircuitsOnError(t *testing.T) {
	e := NewExperiments(tinyScale(), &syncWriter{})
	e.Workers = 1 // deterministic dispatch order: the bad run fails first
	cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))

	rcs := []RunConfig{e.runConfig(cfg, "no-such-workload")}
	for _, wl := range workload.Names() {
		for _, tx := range []int{128, 512, 1024, 2048} {
			rcs = append(rcs, e.runConfig(tinyScale().apply(config.Default().WithTxSize(tx)), wl))
		}
	}

	if _, err := e.runs(rcs); err == nil {
		t.Fatal("poisoned batch must return an error")
	}
	// Successful runs are memoized; with cancellation none of the valid
	// runs behind the failure may have executed.
	e.mu.Lock()
	n := len(e.cache)
	e.mu.Unlock()
	if n != 0 {
		t.Fatalf("runs kept running after the failure: %d runs executed", n)
	}
}

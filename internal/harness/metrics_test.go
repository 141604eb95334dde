package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
)

// TestRunnerMetricsGolden pins the Prometheus exposition of a runner
// fed through both metrics seams at once: the FromTracer adapter for
// the event-derived families and RunConfig.Metrics for the controller's
// native histograms. The protocol mirrors Run's measurement phase
// (setup, warm-up, PUB prefill, stats reset), then two 200-transaction
// rounds. The exposition must validate and match the committed golden
// byte for byte; EXPERIMENTS_UPDATE=1 regenerates it with the
// experiments golden.
func TestRunnerMetricsGolden(t *testing.T) {
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 256 << 10
	cfg.LLCBytes = 1 << 20
	reg := metrics.New()
	r, err := NewRunner(RunConfig{
		Config:    cfg,
		Workload:  "btree",
		SetupKeys: 512,
		Tracer:    metrics.FromTracer(reg),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	r.RunTxs(100)
	if err := r.Controller().PrefillPUB(); err != nil {
		t.Fatal(err)
	}
	r.Controller().ResetStats()
	for range 2 {
		r.RunTxs(200)
		r.Controller().SyncStats()
	}

	var got bytes.Buffer
	if err := metrics.WriteProm(&got, reg); err != nil {
		t.Fatal(err)
	}
	if n, err := metrics.ValidateProm(bytes.NewReader(got.Bytes())); err != nil || n == 0 {
		t.Fatalf("exposition invalid: %d samples, %v", n, err)
	}

	golden := filepath.Join("testdata", "metrics_golden.txt")
	if os.Getenv("EXPERIMENTS_UPDATE") == "1" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (EXPERIMENTS_UPDATE=1 regenerates): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s", got.Bytes())
	}
}

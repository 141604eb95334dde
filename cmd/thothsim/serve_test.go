package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serveTestConfig is the fixed tiny configuration every serve test (and
// the metrics-smoke golden) uses — small enough to run in well under a
// second, deterministic because the whole simulation is seeded and
// cycle-modeled.
func serveTestConfig() config.Config {
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 256 << 10
	cfg.LLCBytes = 1 << 20
	return cfg
}

func newTestSim(t *testing.T, extra obs.Tracer) *serveSim {
	t.Helper()
	sim, err := newServeSim(serveTestConfig(), "btree", 512, 100, 200, serveSampleCycles, extra)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeMetricsGolden is the metrics-smoke gate: boot the serve-mode
// simulation, run a fixed number of rounds, scrape /metrics over HTTP,
// validate it with the exposition parser, and compare byte-for-byte
// against the committed golden.
func TestServeMetricsGolden(t *testing.T) {
	sim := newTestSim(t, nil)
	sim.round()
	sim.round()
	srv := httptest.NewServer(sim.mux())
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promContentType)
	}
	n, err := metrics.ValidateProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape failed exposition validation: %v", err)
	}
	if n == 0 {
		t.Fatal("scrape contained no samples")
	}

	path := filepath.Join("testdata", "serve_metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("/metrics drifted from golden (run with -update to regenerate)\ngot:\n%s", body)
	}
}

// TestServeTimeseriesGolden pins the /timeseries endpoint: the sampler
// window after a fixed seeded run must parse as the documented JSON
// shape and match the committed golden byte-for-byte (json.Marshal
// sorts the per-sample value maps, so the encoding is deterministic).
func TestServeTimeseriesGolden(t *testing.T) {
	sim := newTestSim(t, nil)
	sim.round()
	sim.round()
	srv := httptest.NewServer(sim.mux())
	defer srv.Close()

	resp, body := get(t, srv, "/timeseries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /timeseries: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var ts metrics.TimeSeries
	if err := json.Unmarshal(body, &ts); err != nil {
		t.Fatalf("/timeseries is not valid JSON: %v\n%s", err, body)
	}
	if ts.EveryCycles != serveSampleCycles {
		t.Errorf("every_cycles = %d, want %d", ts.EveryCycles, serveSampleCycles)
	}
	if len(ts.Samples) == 0 {
		t.Fatal("no samples after two rounds")
	}
	for i := 1; i < len(ts.Samples); i++ {
		if ts.Samples[i].Cycle <= ts.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not increasing: %d after %d",
				ts.Samples[i].Cycle, ts.Samples[i-1].Cycle)
		}
	}

	path := filepath.Join("testdata", "serve_timeseries.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("/timeseries drifted from golden (run with -update to regenerate)\ngot:\n%s", body)
	}
}

func TestServeStatsz(t *testing.T) {
	sim := newTestSim(t, nil)
	sim.round()
	srv := httptest.NewServer(sim.mux())
	defer srv.Close()

	resp, body := get(t, srv, "/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statsz: %s", resp.Status)
	}
	var got statsz
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v\n%s", err, body)
	}
	if got.Scheme != "thoth-wtsc" || got.Workload != "btree" {
		t.Errorf("statsz identity = %s/%s", got.Scheme, got.Workload)
	}
	if got.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", got.Rounds)
	}
	if got.Transactions != 200 { // one round of the test's roundTxs
		t.Errorf("transactions = %d, want 200", got.Transactions)
	}
	if got.Cycle <= 0 || got.TotalWrites <= 0 {
		t.Errorf("statsz progress not positive: cycle=%d writes=%d", got.Cycle, got.TotalWrites)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	sim := newTestSim(t, nil)
	srv := httptest.NewServer(sim.mux())
	defer srv.Close()

	resp, body := get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index missing profile listing:\n%s", body)
	}

	resp, body = get(t, srv, "/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars: %s", resp.Status)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["thoth"]; !ok {
		t.Errorf("/debug/vars missing the published registry bridge")
	}
}

// TestServeDifferential pins live == replay: the serve-mode registry's
// tracer-derived families must be byte-identical (same counter values,
// same histogram bucket counts) to a tracemetrics-style replay of the
// JSONL trace of the same seeded run.
func TestServeDifferential(t *testing.T) {
	var trace bytes.Buffer
	jsonl := obs.NewJSONL(&trace)
	sim := newTestSim(t, jsonl)
	sim.round()
	sim.round()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	replayReg := metrics.New()
	ad := metrics.FromTracer(replayReg)
	if _, err := obs.DecodeJSONL(bytes.NewReader(trace.Bytes()), ad.Emit); err != nil {
		t.Fatalf("replay: %v", err)
	}

	keep := func(name string) bool {
		for _, f := range metrics.TracerFamilies {
			if f == name {
				return true
			}
		}
		return false
	}
	var live, replay bytes.Buffer
	if err := metrics.WritePromSelected(&live, sim.reg, keep); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WritePromSelected(&replay, replayReg, keep); err != nil {
		t.Fatal(err)
	}
	if live.String() != replay.String() {
		t.Errorf("live registry and trace replay diverge\nlive:\n%s\nreplay:\n%s", live.String(), replay.String())
	}
	if !strings.Contains(live.String(), "thoth_events_total") {
		t.Fatal("differential compared an empty exposition")
	}
}

// TestRunServeCLI drives the real subcommand end to end: flag parsing,
// listening on an ephemeral port, a bounded round budget, clean exit.
func TestRunServeCLI(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"serve", "-addr", "127.0.0.1:0", "-rounds", "2", "-round", "50",
		"-setup", "64", "-warmup", "5", "-pub", "64", "-workload", "swap",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"serving workload=swap", "/metrics", "completed 2 rounds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeServerTimeouts pins the slowloris fix: the serve-mode server
// must bound header reads and idle keep-alives, but must NOT set a
// write timeout (pprof profile/trace handlers stream for a
// caller-chosen duration).
func TestServeServerTimeouts(t *testing.T) {
	srv := newServeServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: a slowloris client can pin connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections are never reclaimed")
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v: streaming pprof handlers would be cut off", srv.WriteTimeout)
	}
}

// TestServeWithListenerFailure pins the dropped-error fix: when the
// listener dies underneath the server mid-run, the serving loop must
// notice, report, and exit non-zero instead of simulating forever while
// serving nothing.
func TestServeWithListenerFailure(t *testing.T) {
	sim := newTestSim(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // srv.Serve fails on the first Accept
	var out, errw bytes.Buffer
	if code := serveWith(sim, ln, 0, 50, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(errw.String(), "thothsim serve:") {
		t.Errorf("serve failure not reported on stderr: %q", errw.String())
	}
}

func TestRunServeRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"serve", "-scheme", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("bad scheme: exit %d, want 1", code)
	}
	if code := run([]string{"serve", "-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"serve", "-round", "0", "-rounds", "1"}, &out, &errw); code != 1 {
		t.Fatalf("zero round size: exit %d, want 1", code)
	}
	if code := run([]string{"serve", "-shards", "-2", "-addr", "127.0.0.1:0", "-rounds", "1",
		"-round", "50", "-setup", "64", "-warmup", "5", "-pub", "64", "-workload", "swap"}, &out, &errw); code != 2 {
		t.Fatalf("negative -shards: exit %d, want 2", code)
	}
}

// TestServePoolEndpoints boots the pool-backed serve sim and checks the
// live observability surface: /statsz carries the pooled snapshot and
// /metrics carries the engine's per-shard families with shard labels.
func TestServePoolEndpoints(t *testing.T) {
	cfg := serveTestConfig()
	sim, err := newPoolServeSim(cfg, 4, 200, serveSampleCycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.round(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sim.mux())
	defer srv.Close()

	resp, body := get(t, srv, "/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statsz: %s", resp.Status)
	}
	var got poolStatsz
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v\n%s", err, body)
	}
	if got.Shards != 4 || got.Scheme != "thoth-wtsc" {
		t.Errorf("statsz identity = %d shards / %s", got.Shards, got.Scheme)
	}
	if got.Rounds != 1 || got.BlocksPersisted != 200 {
		t.Errorf("rounds=%d blocks=%d, want 1/200", got.Rounds, got.BlocksPersisted)
	}
	if got.Cycle <= 0 || got.TotalWrites <= 0 {
		t.Errorf("statsz progress not positive: cycle=%d writes=%d", got.Cycle, got.TotalWrites)
	}

	resp, body = get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if _, err := metrics.ValidateProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("pool scrape failed exposition validation: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		`thoth_pool_shard_ops_total{shard="0"}`,
		`thoth_pool_shard_ops_total{shard="3"}`,
		`thoth_pool_shard_blocks_total{shard="2"}`,
		`thoth_pool_shard_cycles{shard="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing per-shard sample %s\n%s", want, text)
		}
	}
}

// TestRunServePoolCLI drives `thothsim serve -shards N` end to end.
func TestRunServePoolCLI(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"serve", "-addr", "127.0.0.1:0", "-shards", "2", "-rounds", "2", "-round", "100",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"serving workload=pool(2 shards)", "completed 2 rounds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

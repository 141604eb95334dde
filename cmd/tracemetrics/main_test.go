package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// recordRun executes one small seeded run with the tracer fanned out to
// both a JSONL trace file and a live FromTracer registry, returning the
// trace path and the live registry — the two sides of the differential.
func recordRun(t *testing.T) (string, *metrics.Registry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := obs.NewJSONL(f)

	liveReg := metrics.New()
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 128 << 10
	cfg.LLCBytes = 1 << 20
	cfg.Tracer = obs.Multi(sink, metrics.FromTracer(liveReg))
	if _, err := harness.Run(harness.RunConfig{
		Config:     cfg,
		Workload:   "hashmap",
		WarmupTxs:  50,
		MeasureTxs: 300,
		SetupKeys:  256,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path, liveReg
}

// TestReplayMatchesLive is the CLI half of the live-vs-replay
// differential: `tracemetrics run.jsonl` on the recorded trace must
// print the exact exposition the live adapter accumulated — identical
// counter values and histogram bucket counts.
func TestReplayMatchesLive(t *testing.T) {
	path, liveReg := recordRun(t)

	var out, errw bytes.Buffer
	if code := run([]string{path}, nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}

	var live bytes.Buffer
	if err := metrics.WriteProm(&live, liveReg); err != nil {
		t.Fatal(err)
	}
	if out.String() != live.String() {
		t.Errorf("replay output diverges from the live registry\nreplay:\n%s\nlive:\n%s", out.String(), live.String())
	}
	if !strings.Contains(out.String(), "thoth_pub_entry_age_cycles") {
		t.Fatal("differential compared an exposition without the derived histograms")
	}
}

func TestReplayOutputValidates(t *testing.T) {
	path, _ := recordRun(t)
	var out, errw bytes.Buffer
	if code := run([]string{path}, nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if n, err := metrics.ValidateProm(&out); err != nil || n == 0 {
		t.Fatalf("replay exposition invalid: n=%d err=%v", n, err)
	}
}

// TestExpvarAndSummaryFormats pins the output formats: summary lists
// the replayed families, and expvar, whose bridge is gone, is rejected
// as an unknown format.
func TestExpvarAndSummaryFormats(t *testing.T) {
	path, _ := recordRun(t)

	var out, errw bytes.Buffer
	if code := run([]string{"-format", "expvar", path}, nil, &out, &errw); code != 2 {
		t.Fatalf("expvar: exit %d, want 2 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(errw.String(), `unknown format "expvar"`) {
		t.Errorf("stderr missing diagnosis: %s", errw.String())
	}

	if code := run([]string{"-format", "summary", path}, nil, &out, &errw); code != 0 {
		t.Fatalf("summary: exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "events=") || !strings.Contains(out.String(), "thoth_events_total") {
		t.Errorf("summary output incomplete:\n%s", out.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{}, nil, &out, &errw); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-format", "bogus", "x.jsonl"}, nil, &out, &errw); code != 2 {
		t.Fatalf("bad format: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, nil, &out, &errw); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}

	// A trace carrying an undeclared kind must be rejected, not
	// silently skipped: an event whose Kind has no declared constant
	// serializes as the "kind(N)" placeholder. The fixture is committed
	// so the guarantee survives refactors of the Kind enum or the
	// decoder.
	errw.Reset()
	if code := run([]string{"-format", "summary", filepath.Join("testdata", "badkind.jsonl")}, nil, &out, &errw); code != 1 {
		t.Fatalf("bad kind: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "line 2") || !strings.Contains(errw.String(), "unknown kind") {
		t.Errorf("stderr should flag line 2's undeclared kind: %s", errw.String())
	}

	// The same guarantee end to end: a live tracer fed an out-of-range
	// Kind produces a trace tracemetrics rejects.
	path := filepath.Join(t.TempDir(), "live.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(f)
	sink.Emit(obs.Event{Kind: obs.Kind(12), Cycle: 1, Addr: 0, Scheme: "thoth-wtsc"})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if code := run([]string{path}, nil, &out, &errw); code != 1 {
		t.Fatalf("live out-of-range kind: exit %d, want 1", code)
	}
}

// TestStdinDash pins the `-` path argument: the trace is read from the
// provided stdin and replays to the same exposition as the file path.
func TestStdinDash(t *testing.T) {
	path, _ := recordRun(t)
	var fromFile, errw bytes.Buffer
	if code := run([]string{path}, nil, &fromFile, &errw); code != 0 {
		t.Fatalf("file: exit %d, stderr: %s", code, errw.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fromStdin bytes.Buffer
	if code := run([]string{"-"}, bytes.NewReader(raw), &fromStdin, &errw); code != 0 {
		t.Fatalf("stdin: exit %d, stderr: %s", code, errw.String())
	}
	if fromStdin.String() != fromFile.String() {
		t.Fatal("stdin replay differs from file replay")
	}
}

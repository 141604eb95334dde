package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
)

// recordRun executes one small seeded run with the tracer fanned out to
// both a JSONL trace file and a live per-kind counter, returning the
// trace path and the live counts — the two sides of the differential.
func recordRun(t *testing.T) (string, map[obs.Kind]int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := obs.NewJSONL(f)

	live := make(map[obs.Kind]int64)
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 128 << 10
	cfg.LLCBytes = 1 << 20
	cfg.Tracer = obs.Multi(sink, obs.Func(func(e obs.Event) { live[e.Kind]++ }))
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
	return path, live
}

// TestReplayMatchesLive is the CLI half of the live-vs-replay
// differential: `tracemetrics run.jsonl` on the recorded trace must
// print the event total and, for every declared kind, the count a live
// tracer saw during the same run.
func TestReplayMatchesLive(t *testing.T) {
	path, live := recordRun(t)

	var out, errw bytes.Buffer
	if code := run([]string{path}, nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}

	var want strings.Builder
	var total int64
	for _, k := range obs.Kinds() {
		total += live[k]
		fmt.Fprintf(&want, "%s %d\n", k, live[k])
	}
	if got, want := out.String(), fmt.Sprintf("events=%d\n", total)+want.String(); got != want {
		t.Errorf("replay output diverges from the live counts\nreplay:\n%s\nlive:\n%s", got, want)
	}
	for _, k := range []obs.Kind{obs.KindPCBFlush, obs.KindPUBEvict, obs.KindWPQDrain} {
		if live[k] == 0 {
			t.Errorf("differential compared a run with no %s events", k)
		}
	}
}

func TestRejectsBadInput(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{}, nil, &out, &errw); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"a.jsonl", "b.jsonl"}, nil, &out, &errw); code != 2 {
		t.Fatalf("two traces: exit %d, want 2", code)
	}
	if code := run([]string{"-format", "summary", "x.jsonl"}, nil, &out, &errw); code != 2 {
		t.Fatalf("removed -format flag: exit %d, want 2", code)
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
	if code := run([]string{filepath.Join("testdata", "badkind.jsonl")}, nil, &out, &errw); code != 1 {
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
// provided stdin and prints the same counts as the file path.
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

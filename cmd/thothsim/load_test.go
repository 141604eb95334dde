package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadGoldenRuns is the fixed set of CLI invocations the load golden
// pins: every matrix scenario through one controller, plus one pooled
// variant. Each run carries -check, so the golden also proves the
// histogram percentiles match the exact trace recomputation.
func loadGoldenRuns() [][]string {
	base := func(name string) []string {
		return []string{"load", "-scenario", name, "-tenants", "4", "-ops", "160",
			"-pub", "64", "-top", "2", "-check"}
	}
	runs := [][]string{}
	for _, name := range loadgen.ScenarioNames() {
		runs = append(runs, base(name))
	}
	runs = append(runs, []string{"load", "-scenario", "steady", "-tenants", "4",
		"-shards", "2", "-ops", "160", "-pub", "64", "-check"})
	return runs
}

// TestLoadGolden pins the `thothsim load` stdout byte-for-byte across
// the scenario matrix: the arrival processes, key patterns, modeled
// latencies and the event-stream hash are all seeded, so any drift in
// generated traffic or measurement diffs here. Regenerate with
// `go test ./cmd/thothsim -run TestLoadGolden -update`.
func TestLoadGolden(t *testing.T) {
	var got bytes.Buffer
	for _, args := range loadGoldenRuns() {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errw.String())
		}
		got.WriteString("== " + strings.Join(args, " ") + "\n")
		got.Write(out.Bytes())
	}

	golden := filepath.Join("testdata", "load_golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (-update regenerates): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("load report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

// TestLoadList pins the -list inventory.
func TestLoadList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"load", "-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, name := range loadgen.ScenarioNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing scenario %q:\n%s", name, out.String())
		}
	}
}

// TestLoadDuration verifies the -duration horizon: with the op budget
// lifted, the run must stop at the first arrival past the modeled
// deadline, not at the scenario's op count.
func TestLoadDuration(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"load", "-scenario", "steady", "-tenants", "4",
		"-duration", "0.25", "-pub", "64"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	// 0.25 ms at the default 2 GHz is 500k cycles: far fewer than the
	// 20000-op scenario budget at an 8000-cycle aggregate gap.
	if strings.Contains(out.String(), "20000 ops") {
		t.Fatalf("-duration did not bound the run:\n%s", out.String())
	}
}

func TestLoadRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"load", "-scenario", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("bad scenario: exit %d, want 1", code)
	}
	if code := run([]string{"load", "-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"load", "-scheme", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("bad scheme: exit %d, want 1", code)
	}
	// A negative count is rejected, not dropped in favour of the
	// scenario default.
	for _, flag := range []string{"-shards", "-tenants", "-ops", "-duration", "-top"} {
		errw.Reset()
		args := []string{"load", "-ops", "10", "-pub", "64", flag, "-3"}
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%s -3: exit %d, want 2", flag, code)
		}
		if want := flag + " must not be negative"; !strings.Contains(errw.String(), want) {
			t.Errorf("%s -3: stderr %q, want %q", flag, errw.String(), want)
		}
	}
	// A stray argument must not end flag parsing silently: -ops after it
	// would be dropped and the scenario's default budget would run.
	errw.Reset()
	if code := run([]string{"load", "-scenario", "steady", "bogus", "-ops", "10"}, &out, &errw); code != 2 {
		t.Fatalf("stray argument: exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), `unexpected argument "bogus"`) {
		t.Errorf("stderr missing diagnosis: %q", errw.String())
	}
}

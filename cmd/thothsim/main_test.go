package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
)

// The smoke tests run the real CLI entry point end to end at tiny scale:
// flag parsing, a full simulation, and report formatting.

func TestRunSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"workload=swap", "scheme=thoth-wtsc", "cycles=", "pcb-merge-rate="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCrashRecover(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "hashmap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16", "-crash",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "recovery:") {
		t.Errorf("crash run must print a recovery report:\n%s", out.String())
	}
}

func TestRunWritesValidTraces(t *testing.T) {
	for _, format := range []string{"jsonl", "chrome"} {
		path := filepath.Join(t.TempDir(), "trace."+format)
		var out, errw bytes.Buffer
		code := run([]string{
			"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
			"-trace", path, "-trace-format", format,
		}, &out, &errw)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", format, code, errw.String())
		}
		if !strings.Contains(out.String(), "trace: ") {
			t.Errorf("%s: output missing trace summary:\n%s", format, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if format == "jsonl" {
			n, err = obs.ValidateJSONL(f)
		} else {
			n, err = obs.ValidateChrome(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s trace invalid: %v", format, err)
		}
		if n == 0 {
			t.Errorf("%s trace is empty", format)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-scheme", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("bad scheme: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "unknown scheme") {
		t.Errorf("stderr missing diagnosis: %s", errw.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-shards", "-2", "-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16"}, &out, &errw); code != 2 {
		t.Fatalf("negative -shards: exit %d, want 2", code)
	}
	// A stray argument ends flag parsing; every flag after it would be
	// dropped and a default-scale run started. The removed serve
	// subcommand is one such argument.
	for _, tc := range []struct {
		args []string
		arg  string
	}{
		{[]string{"-workload", "swap", "-txs", "30", "bogus"}, "bogus"},
		{[]string{"-workload", "swap", "bogus", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16"}, "bogus"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-rounds", "1", "-round", "50",
			"-setup", "64", "-warmup", "5", "-pub", "64"}, "serve"},
	} {
		errw.Reset()
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Fatalf("%v: exit %d, want 2", tc.args, code)
		}
		if want := fmt.Sprintf("unexpected argument %q", tc.arg); !strings.Contains(errw.String(), want) {
			t.Errorf("%v: stderr %q, want %q", tc.args, errw.String(), want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for in, wantErr := range map[string]bool{
		"baseline": false, "thoth-wtsc": false, "WTBC": false, "ideal": false,
		"triad-relaxed-16": false, "bogus": true,
	} {
		if _, err := scheme.Parse(in); (err != nil) != wantErr {
			t.Errorf("scheme.Parse(%q) err=%v, wantErr=%v", in, err, wantErr)
		}
	}
}

func TestRunCrashRecoverParallel(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "hashmap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
		"-crash", "-recovery-workers", "2",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "parallel: 2 workers") {
		t.Errorf("parallel crash run must print the per-shard report:\n%s", out.String())
	}
}

// TestRunBatchedPersistFlags pins that -persist-batch, which sizes the
// -shards mode's batches, is rejected rather than silently ignored in
// the single-controller harness mode.
func TestRunBatchedPersistFlags(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
		"-persist-batch", "8",
	}, &out, &errw)
	if code == 0 {
		t.Fatalf("-persist-batch without -shards exited 0:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "-persist-batch needs -shards") {
		t.Errorf("stderr missing diagnosis: %q", errw.String())
	}
}

// TestRunPoolThroughput drives `thothsim -shards N` end to end: seeded
// random persists through the sharded pool, throughput plus pooled and
// per-shard stats on stdout.
func TestRunPoolThroughput(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-shards", "2", "-txs", "400", "-persist-batch", "16", "-verify"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"pool shards=2", "ops/sec=", "shard 0:", "shard 1:", "verify: all shards consistent"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPoolCrashRecover crashes the even-indexed shard subset after
// the run, recovers it, and verifies every written block.
func TestRunPoolCrashRecover(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-shards", "2", "-txs", "400", "-crash", "-recovery-workers", "2"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"crashed shards [true false]", "1/2 shards recovered", "recovery verified:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPoolRejectsBadShards pins the divisibility validation end to
// end: 3 does not divide the 1 GiB module.
func TestRunPoolRejectsBadShards(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-shards", "3", "-txs", "10"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "thothsim: pool:") {
		t.Errorf("bad shard count not reported: %q", errw.String())
	}
}

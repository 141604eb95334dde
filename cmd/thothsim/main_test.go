package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
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

// TestRunCrashEADR checks that -eadr -crash crashes through the runner,
// whose eADR flush persists the LLC's dirty lines. This swap run keeps
// every line it writes in the LLC, so a crash that skipped the flush
// would leave nothing of the run in the image: recovery would replay an
// empty PUB.
func TestRunCrashEADR(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "300", "-warmup", "50", "-setup", "256", "-pub", "64",
		"-eadr", "-crash",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	var blocks, entries int64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "recovery:") {
			if _, err := fmt.Sscanf(line, "recovery: %d PUB blocks, %d entries", &blocks, &entries); err != nil {
				t.Fatalf("unparsable recovery line %q: %v", line, err)
			}
		}
	}
	if entries == 0 {
		t.Fatalf("-eadr crash left %d PUB blocks and %d entries to replay, want the flushed LLC lines' updates:\n%s",
			blocks, entries, out.String())
	}
}

func TestRunWritesValidTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
		"-trace", path,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "trace: ") {
		t.Errorf("output missing trace summary:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.DecodeJSONL(f, func(obs.Event) {})
	f.Close()
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if n == 0 {
		t.Error("trace is empty")
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
	// The pool driver is `thothsim load -shards N`; the harness mode
	// has no -shards.
	errw.Reset()
	if code := run([]string{"-shards", "2", "-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16"}, &out, &errw); code != 2 {
		t.Fatalf("-shards: exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "flag provided but not defined: -shards") {
		t.Errorf("-shards: stderr %q does not name the unknown flag", errw.String())
	}
	// A negative count is rejected, not dropped: a negative
	// -recovery-workers would recover serially and a negative -warmup
	// would skip the warm-up.
	for _, flag := range []string{"-warmup", "-recovery-workers"} {
		errw.Reset()
		args := []string{"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16", "-crash", flag, "-5"}
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%s -5: exit %d, want 2", flag, code)
		}
		if want := flag + " must not be negative"; !strings.Contains(errw.String(), want) {
			t.Errorf("%s -5: stderr %q, want %q", flag, errw.String(), want)
		}
	}
	// -flight and -recovery-workers act on the crash image alone;
	// without -crash they would be silently dropped.
	flightDir := filepath.Join(t.TempDir(), "flight")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16", "-flight", flightDir}, "-flight"},
		{[]string{"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16", "-recovery-workers", "4"}, "-recovery-workers"},
	} {
		errw.Reset()
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Fatalf("%s without -crash: exit %d, want 2", tc.flag, code)
		}
		if want := tc.flag + " needs -crash"; !strings.Contains(errw.String(), want) {
			t.Errorf("%s without -crash: stderr %q, want %q", tc.flag, errw.String(), want)
		}
	}
	if _, err := os.Stat(flightDir); !os.IsNotExist(err) {
		t.Errorf("-flight without -crash created %s (stat err %v)", flightDir, err)
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
	for in, want := range map[string]config.Scheme{
		"baseline": config.BaselineStrict, "baseline-strict": config.BaselineStrict,
		"thoth": config.ThothWTSC, "wtsc": config.ThothWTSC, "thoth-wtsc": config.ThothWTSC,
		"WTBC": config.ThothWTBC, "thoth-wtbc": config.ThothWTBC,
		"anubis": config.AnubisECC, "ideal": config.AnubisECC, "anubis-ecc": config.AnubisECC,
		"triad": config.TriadRelaxed(64), "triad-relaxed": config.TriadRelaxed(64),
		"triad-8": config.TriadRelaxed(8), "triad-relaxed-16": config.TriadRelaxed(16),
		" Triad-Relaxed-16 ": config.TriadRelaxed(16),
	} {
		if got, err := scheme.Parse(in); err != nil || got != want {
			t.Errorf("scheme.Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "", "triad-0", "triad-relaxed-x", "triad-relaxed-"} {
		if got, err := scheme.Parse(in); err == nil {
			t.Errorf("scheme.Parse(%q) = %v, want an error", in, got)
		}
	}
	// Every scheme's canonical name resolves back to it.
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC, config.ThothWTBC,
		config.AnubisECC, config.TriadRelaxed(8)} {
		if got, err := scheme.Parse(s.String()); err != nil || got != s {
			t.Errorf("scheme.Parse(%q) = %v, %v; want %v", s.String(), got, err, s)
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

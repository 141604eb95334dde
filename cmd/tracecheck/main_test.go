package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeTrace writes a tiny JSONL trace and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := obs.NewJSONL(f)
	sink.Emit(obs.Event{Kind: obs.KindPCBFlush, Cycle: 10, Addr: 0x1000, Aux: 4, Scheme: "thoth-wtsc"})
	sink.Emit(obs.Event{Kind: obs.KindWPQDrain, Cycle: 20, Addr: 0x80, Scheme: "thoth-wtsc", Detail: obs.DrainAge})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidTraces(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{writeTrace(t)}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if got := out.String(); got != "ok: 2 events\n" {
		t.Errorf("output %q, want \"ok: 2 events\\n\"", got)
	}
}

func TestInvalidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"kind\":\"no-such-kind\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{path}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "line 1") {
		t.Errorf("stderr should name the offending line: %s", errw.String())
	}
}

// TestRejectsUndeclaredKind is the regression fixture for kind-range
// validation: an event whose Kind has no declared constant serializes
// as the "kind(N)" placeholder, and tracecheck must reject it rather
// than count it. The fixture is committed so the guarantee survives
// refactors of the Kind enum or the validator.
func TestRejectsUndeclaredKind(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{filepath.Join("testdata", "badkind.jsonl")}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(errw.String(), "line 2") || !strings.Contains(errw.String(), "unknown kind") {
		t.Errorf("stderr should flag line 2's undeclared kind: %s", errw.String())
	}

	// The same guarantee end to end: a live tracer fed an out-of-range
	// Kind produces a trace tracecheck rejects.
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
	if code := run([]string{path}, &out, &errw); code != 1 {
		t.Fatalf("live out-of-range kind: exit %d, want 1", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no file: exit %d, want 2", code)
	}
	if code := run([]string{"-format", "jsonl", writeTrace(t)}, &out, &errw); code != 2 {
		t.Fatalf("-format (not a flag): exit %d, want 2", code)
	}
	if code := run([]string{"/no/such/file.jsonl"}, &out, &errw); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
}

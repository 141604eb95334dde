package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRunRecoveryExperiment runs the cheapest experiment end to end at a
// tiny scale: flag parsing, the shared run cache, and report output.
func TestRunRecoveryExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-exp", "recovery", "-quick", "-txs", "30", "-warmup", "5", "-setup", "64",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "completed in") {
		t.Errorf("missing completion line:\n%s", out.String())
	}
}

// TestRunRejectsUnknownExperiment requires an unknown -exp name to be
// rejected before anything is written: no report header on stdout and
// no trace file.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "nonsense", "-quick", "-trace", trace}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "unknown experiment") {
		t.Errorf("stderr missing diagnosis: %s", errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", out.String())
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("trace file %s was created (stat: %v)", trace, err)
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-exp", "vf", "-quick", "-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-exp", "vf", "-quick", "-workers", "-1"}, "-workers must be at least 1"},
		// A stray argument must not end flag parsing silently: -quick
		// after it would be dropped and a default-scale run started.
		{[]string{"-exp", "8", "extra", "-quick"}, `unexpected argument "extra"`},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Fatalf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errw.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not name the problem (%q)", tc.args, errw.String(), tc.msg)
		}
	}
}

// TestDocListsEveryExperiment keeps the package doc's list of
// experiments equal to the one list the -exp help and ByName read.
func TestDocListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	i := strings.Index(doc, "Experiments (")
	if i < 0 {
		t.Fatalf("package doc lists no experiments:\n%s", doc)
	}
	list := doc[i:]
	list = strings.Join(strings.Fields(list[strings.Index(list, ":")+1:]), " ")
	if want := strings.Join(harness.ExperimentNames(), ", ") + "."; list != want {
		t.Errorf("package doc lists %q, want %q", list, want)
	}
}

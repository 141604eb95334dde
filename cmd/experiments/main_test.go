package main

import (
	"bytes"
	"go/parser"
	"go/token"
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

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "unknown experiment") {
		t.Errorf("stderr missing diagnosis: %s", errw.String())
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-exp", "vf", "-quick", "-workers", "0"},
		{"-exp", "vf", "-quick", "-workers", "-1"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
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

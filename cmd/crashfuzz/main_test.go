package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-seeds", "25", "-start", "100", "-workers", "4"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "25 cases, 0 violations") {
		t.Errorf("sweep summary missing:\n%s", out.String())
	}
}

func TestRunReplay(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-replay", "42"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "seed=42") || !strings.Contains(out.String(), ": ok") {
		t.Errorf("replay report missing:\n%s", out.String())
	}
}

// TestRunReplayZero pins that -replay replays whatever seed it is given:
// seed 0 is a seed a sweep from -start 0 can report, not "no replay".
func TestRunReplayZero(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-replay", "0"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "seed=0 ") || strings.Contains(out.String(), "cases") {
		t.Errorf("-replay 0 must report seed 0 alone, not sweep:\n%s", out.String())
	}
}

// TestRunRejectsBadFlag pins exit 2 and a message naming the problem for
// every flag combination crashfuzz cannot honor.
func TestRunRejectsBadFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-seeds", "-1"}, "-seeds must be at least 1"},
		{[]string{"-seeds", "0"}, "-seeds must be at least 1"},
		{[]string{"-seeds", "1", "-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-seeds", "1", "-workers", "-2"}, "-workers must be at least 1"},
		{[]string{"-minimize"}, "-minimize needs -replay"},
		{[]string{"-replay", "3", "extra", "-minimize"}, `unexpected argument "extra"`},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout: %s)", tc.args, code, out.String())
		}
		if !strings.Contains(errw.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not name the problem (%q)", tc.args, errw.String(), tc.msg)
		}
	}
}

// Command tracecheck validates a controller event trace written by
// thothsim or experiments with -trace. It checks the JSONL schema (one
// JSON object per line, required fields, known event kinds) and reports
// the event count.
//
// Usage:
//
//	tracecheck trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tracecheck <file>")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "tracecheck:", err)
		return 1
	}
	defer f.Close()

	n, err := obs.DecodeJSONL(f, func(obs.Event) {})
	if err != nil {
		fmt.Fprintf(stderr, "tracecheck: %s: %v\n", fs.Arg(0), err)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d events\n", n)
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Command tracemetrics validates a JSONL controller event trace (as
// written by `thothsim -trace run.jsonl`, the experiments driver or a
// crash's flight dump) and counts its events by kind. Every line is
// decoded with obs.DecodeJSONL; a trace that breaks the schema exits 1
// naming its first bad line (make trace-smoke, make obs-smoke). A valid
// trace prints `events=N`, then one `kind count` line per declared
// event kind, in declaration order.
//
// Usage:
//
//	tracemetrics run.jsonl
//	thothsim -trace /dev/stdout ... | tracemetrics -   # read the trace from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracemetrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracemetrics trace.jsonl ('-' reads stdin)")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	in := stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "tracemetrics:", err)
			return 1
		}
		defer f.Close()
		in = f
	}

	var counts [256]int64
	n, err := obs.DecodeJSONL(in, func(e obs.Event) { counts[e.Kind]++ })
	if err != nil {
		fmt.Fprintln(stderr, "tracemetrics:", err)
		return 1
	}
	fmt.Fprintf(stdout, "events=%d\n", n)
	for _, k := range obs.Kinds() {
		fmt.Fprintf(stdout, "%s %d\n", k, counts[k])
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

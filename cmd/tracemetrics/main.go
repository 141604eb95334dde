// Command tracemetrics replays a JSONL controller event trace (as
// written by `thothsim -trace run.jsonl` or the experiments driver)
// through the metrics.FromTracer adapter into a fresh registry, and
// prints the result — so the post-hoc view of a run agrees
// metric-for-metric with a registry the same adapter fed during the run
// (TestReplayMatchesLive pins this). A trace that breaks the JSONL
// schema exits 1 naming its first bad line, so `-format summary`
// doubles as the trace validator (make trace-smoke, make obs-smoke).
//
// Usage:
//
//	tracemetrics run.jsonl             # Prometheus text format
//	tracemetrics -format summary run.jsonl
//	thothsim -trace /dev/stdout ... | tracemetrics -   # read the trace from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// replay folds every event of the JSONL stream in r into a fresh
// registry via the FromTracer adapter.
func replay(r io.Reader) (*metrics.Registry, int, error) {
	reg := metrics.New()
	ad := metrics.FromTracer(reg)
	n, err := obs.DecodeJSONL(r, ad.Emit)
	return reg, n, err
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracemetrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "prom", "output format: prom|summary")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracemetrics [-format prom|summary] trace.jsonl ('-' reads stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "prom", "summary":
	default:
		fmt.Fprintf(stderr, "tracemetrics: unknown format %q (prom|summary)\n", *format)
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

	reg, n, err := replay(in)
	if err != nil {
		fmt.Fprintln(stderr, "tracemetrics:", err)
		return 1
	}

	if *format == "summary" {
		fmt.Fprintf(stdout, "events=%d families=%d\n", n, len(reg.FamilyNames()))
		for _, name := range reg.FamilyNames() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		return 0
	}
	if err := metrics.WriteProm(stdout, reg); err != nil {
		fmt.Fprintln(stderr, "tracemetrics:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

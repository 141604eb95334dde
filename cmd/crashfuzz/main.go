// Command crashfuzz drives the crash-injection differential tester over
// a range of seeds, or replays (and optionally minimizes) a single seed
// from a failure report. Every seed runs its whole variant matrix: each
// persistence scheme on one controller with parallel recovery at 1, 2,
// 4 and 8 workers checked against the serial reference, and the seed's
// scheme on a 2/4/8/16-shard pool that crashes a seed-derived subset of
// its shards.
//
// Usage:
//
//	crashfuzz -seeds 1000                 # sweep seeds 1..1000
//	crashfuzz -seeds 200 -start 5000      # a different block of seeds
//	crashfuzz -replay 1234                # reproduce one reported seed
//	crashfuzz -replay 1234 -minimize      # and shrink its trace first
//
// Every case is a pure function of its seed, so a failing seed printed
// by a sweep reproduces byte-for-byte here or in a Go test via
// crashfuzz.Replay(seed).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/crashfuzz"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 200, "number of seeds to sweep (at least 1)")
	start := fs.Int64("start", 1, "first seed of the sweep")
	replay := fs.Int64("replay", 0, "replay this one seed instead of sweeping")
	minimize := fs.Bool("minimize", false, "with -replay: shrink a failing trace before reporting")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel cases during a sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "crashfuzz: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *seeds < 1:
		fmt.Fprintf(stderr, "crashfuzz: -seeds must be at least 1 (got %d)\n", *seeds)
		return 2
	case *minimize && !set["replay"]:
		fmt.Fprintln(stderr, "crashfuzz: -minimize needs -replay (a sweep is not minimized)")
		return 2
	}

	if set["replay"] {
		res := crashfuzz.Replay(*replay)
		if res.Failed() && *minimize {
			min := crashfuzz.Minimize(res.Case)
			fmt.Fprintf(stdout, "minimized trace: %d ops -> %d ops\n", res.Case.CrashIdx, len(min.Trace))
			res = crashfuzz.Check(min)
		}
		fmt.Fprintln(stdout, res)
		if res.Failed() {
			return 1
		}
		return 0
	}

	sw := crashfuzz.Sweep(*start, *seeds, *workers)
	fmt.Fprintln(stdout, sw)
	if sw.Failed() {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

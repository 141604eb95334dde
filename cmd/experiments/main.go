// Command experiments regenerates the paper's evaluation: every figure
// and table of Section V plus the recovery experiment of Section IV-D.
//
// Usage:
//
//	experiments -exp all                 # everything (several minutes)
//	experiments -exp 8                   # Figure 8 only
//	experiments -exp table3 -quick       # Table III at smoke-test scale
//	experiments -exp all -txs 12000      # larger measured phase
//	experiments -exp schemes -schemes baseline,wtsc,triad-relaxed-64
//
// Experiments (in report order; the -exp help lists the same names):
// 3, 8, 9, 10, table2, table3, 11, 12, vf, recovery, eadr, pubsize,
// arrangement, schemes, scenarios, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scheme"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(harness.ExperimentNames(), "|"))
	schemesStr := fs.String("schemes", "",
		"comparison set for -exp schemes, comma-separated ("+strings.Join(scheme.Names(), "|")+")")
	quick := fs.Bool("quick", false, "smoke-test scale (10x smaller, not paper-representative)")
	txs := fs.Int("txs", 0, "override measured transactions per run")
	warmup := fs.Int("warmup", 0, "override warm-up transactions per run")
	setup := fs.Int("setup", 0, "override benchmark population size")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation runs")
	traceFile := fs.String("trace", "", "write a controller event trace covering every run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(stderr, "experiments: -workers must be at least 1")
		return 2
	}

	// Reject an unknown name before the header or a trace file is
	// written.
	if names := harness.ExperimentNames(); !slices.Contains(names, *exp) {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q (have %s)\n", *exp, strings.Join(names, "|"))
		return 1
	}

	scale := harness.DefaultScale()
	if *quick {
		scale = harness.QuickScale()
	}
	if *txs > 0 {
		scale.MeasureTxs = *txs
	}
	if *warmup > 0 {
		scale.WarmupTxs = *warmup
	}
	if *setup > 0 {
		scale.SetupKeys = *setup
	}

	e := harness.NewExperiments(scale, stdout)
	e.Workers = *workers
	if *schemesStr != "" {
		for _, name := range strings.Split(*schemesStr, ",") {
			s, err := scheme.Parse(name)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
			e.Zoo = append(e.Zoo, s)
		}
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		sink := obs.NewJSONL(f)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: trace:", err)
				return
			}
			fmt.Fprintf(stdout, "trace: %d events -> %s\n", sink.Count(), *traceFile)
		}()
		// The suite interleaves parallel runs into one stream; JSONL
		// serializes writes internally.
		e.Tracer = sink
	}

	fmt.Fprintf(stdout, "Thoth evaluation — scale: warmup=%d measure=%d setup=%d PUB=%dKiB workers=%d\n",
		scale.WarmupTxs, scale.MeasureTxs, scale.SetupKeys, scale.PUBBytes>>10, e.Workers)
	start := time.Now()
	if err := e.ByName(*exp); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

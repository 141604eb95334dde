// Command thothsim runs one benchmark against one secure-memory
// configuration and prints the measurements: execution cycles, NVM write
// traffic by category, PUB eviction outcomes, cache hit rates and PCB
// merge rate.
//
// Usage:
//
//	thothsim -workload btree -scheme thoth-wtsc
//	thothsim -workload swap -scheme baseline -block 256 -tx 512
//	thothsim -workload rbtree -scheme thoth-wtsc -crash  # crash + recover
//
// The load subcommand replaces the closed-loop harness with an
// open-loop multi-tenant traffic generator: seeded arrival processes
// (Poisson, uniform, constant, bursty) issue operations on a modeled
// schedule independent of completions, so queueing delay is measured
// and overload appears as tail latency:
//
//	thothsim load -list
//	thothsim load -scenario burst -tenants 1000 -shards 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/scheme"
)

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "load" {
		return runLoad(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("thothsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "btree", "benchmark: btree|ctree|hashmap|rbtree|swap")
	schemeStr := fs.String("scheme", "thoth-wtsc",
		"persistence scheme: "+strings.Join(scheme.Names(), "|"))
	block := fs.Int("block", 128, "cache block size in bytes (64|128|256)")
	tx := fs.Int("tx", 128, "transaction size in bytes")
	txs := fs.Int("txs", 6000, "measured transactions")
	warmup := fs.Int("warmup", 1200, "warm-up transactions")
	setup := fs.Int("setup", 16384, "benchmark population")
	pubKiB := fs.Int64("pub", 1024, "PUB size in KiB (paper default 65536)")
	ctrKiB := fs.Int("ctr-cache", 64, "counter cache KiB")
	macKiB := fs.Int("mac-cache", 128, "MAC cache KiB")
	wpqEntries := fs.Int("wpq", 64, "WPQ entries (PCB takes 1/8 under Thoth)")
	crash := fs.Bool("crash", false, "crash after the run and recover the image")
	recoveryWorkers := fs.Int("recovery-workers", 0,
		"recover with the sharded parallel engine at N workers (0 = serial reference)")
	verify := fs.Bool("verify", false, "verify all persisted data after the run")
	eadr := fs.Bool("eadr", false, "enhanced ADR: persistent cache hierarchy (extension)")
	traceFile := fs.String("trace", "", "write a controller event trace to this file")
	flightDir := fs.String("flight", "",
		"with -crash, dump the flight recorder (the always-on ring of recent "+
			"controller events) to flight.jsonl in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "thothsim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if n := negativeFlag(fs, "warmup", "recovery-workers"); n != "" {
		fmt.Fprintf(stderr, "thothsim: -%s must not be negative\n", n)
		return 2
	}
	if *flightDir != "" && !*crash {
		fmt.Fprintln(stderr, "thothsim: -flight needs -crash")
		return 2
	}
	if *recoveryWorkers != 0 && !*crash {
		fmt.Fprintln(stderr, "thothsim: -recovery-workers needs -crash")
		return 2
	}

	sch, err := scheme.Parse(*schemeStr)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim:", err)
		return 1
	}

	cfg := config.Default().
		WithScheme(sch).
		WithBlockSize(*block).
		WithTxSize(*tx).
		WithWPQ(*wpqEntries).
		WithMetadataCaches(*ctrKiB<<10, *macKiB<<10)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = *pubKiB << 10
	cfg.LLCBytes = 1 << 20
	cfg.EADR = *eadr

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "thothsim:", err)
			return 1
		}
		defer f.Close()
		sink := obs.NewJSONL(f)
		// Close the sink after the whole run — crash and recovery
		// included, since recovery emits events through the same tracer.
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(stderr, "thothsim: trace:", err)
				return
			}
			fmt.Fprintf(stdout, "trace: %d events -> %s\n", sink.Count(), *traceFile)
		}()
		cfg.Tracer = sink
	}

	res, err := harness.Run(harness.RunConfig{
		Config:     cfg,
		Workload:   *wl,
		WarmupTxs:  *warmup,
		MeasureTxs: *txs,
		SetupKeys:  *setup,
		Verify:     *verify,
	})
	if err != nil {
		fmt.Fprintln(stderr, "thothsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload=%s scheme=%v block=%dB tx=%dB\n", *wl, sch, *block, *tx)
	fmt.Fprintf(stdout, "cycles=%d (%.3f ms at %.0f GHz) txs=%d\n",
		res.Cycles, float64(res.Cycles)/(cfg.CPUFreqGHz*1e6), cfg.CPUFreqGHz, *txs)
	fmt.Fprintln(stdout, res.Stats.String())
	if sch.IsThoth() {
		fmt.Fprintf(stdout, "pcb-merge-rate=%.1f%%\n", 100*res.PCBMergeRate)
	}

	if *crash {
		if err := res.Runner.Crash(); err != nil {
			fmt.Fprintln(stderr, "thothsim: crash flush:", err)
			return 1
		}
		if *flightDir != "" {
			rec := res.Runner.Controller().FlightRecord()
			if err := dumpFlight(*flightDir, rec, stdout); err != nil {
				fmt.Fprintln(stderr, "thothsim: flight dump:", err)
				return 1
			}
		}
		var rep *recovery.Report
		if *recoveryWorkers > 0 {
			rep, err = recovery.RecoverParallel(cfg, res.Controller.Device(),
				recovery.RecoverOpts{Workers: *recoveryWorkers})
		} else {
			rep, err = recovery.Recover(cfg, res.Controller.Device())
		}
		if err != nil {
			fmt.Fprintln(stderr, "thothsim: recovery failed:", err)
			return 1
		}
		fmt.Fprintln(stdout, rep)
	}
	return 0
}

// negativeFlag returns the name of the first of the named numeric flags
// whose value is below zero, or "" when none is.
func negativeFlag(fs *flag.FlagSet, names ...string) string {
	for _, n := range names {
		if v, _ := strconv.ParseFloat(fs.Lookup(n).Value.String(), 64); v < 0 {
			return n
		}
	}
	return ""
}

// dumpFlight writes the flight-recorder snapshot as the JSONL trace
// flight.jsonl under dir (created if missing).
func dumpFlight(dir string, rec obs.FlightRecord, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flight recorder: %d events (%d dropped of %d total) -> %s\n",
		len(rec.Events), rec.Dropped, rec.Count, path)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

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
//	thothsim -shards 4 -txs 20000            # sharded pool throughput
//	thothsim -shards 4 -crash                # crash a shard subset + recover
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
	persistBatch := fs.Int("persist-batch", 0,
		"with -shards, persist in batches of this many blocks (0 = 64)")
	verify := fs.Bool("verify", false, "verify all persisted data after the run")
	shadow := fs.Bool("shadow", false, "enable Anubis shadow-table tracking (fast recovery)")
	eadr := fs.Bool("eadr", false, "enhanced ADR: persistent cache hierarchy (extension)")
	traceFile := fs.String("trace", "", "write a controller event trace to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace format: jsonl|chrome")
	flightDir := fs.String("flight", "",
		"with -crash, dump the flight recorder (the always-on ring of recent "+
			"controller events) to JSONL files in this directory alongside the crash image")
	shards := fs.Int("shards", 0,
		"run the sharded pool throughput mode at N controllers instead of the workload "+
			"harness (-txs seeded random block persists in batches of -persist-batch; "+
			"N must divide the 1 GiB module — powers of two work; 0 = harness)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "thothsim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *shards < 0 {
		fmt.Fprintln(stderr, "thothsim: -shards must not be negative")
		return 2
	}
	if *persistBatch != 0 && *shards <= 0 {
		fmt.Fprintln(stderr, "thothsim: -persist-batch needs -shards")
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
	cfg.ShadowTracking = *shadow
	cfg.EADR = *eadr

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "thothsim:", err)
			return 1
		}
		defer f.Close()
		var sink obs.Sink
		switch strings.ToLower(*traceFormat) {
		case "jsonl":
			sink = obs.NewJSONL(f)
		case "chrome":
			sink = obs.NewChrome(f, cfg.CPUFreqGHz)
		default:
			fmt.Fprintf(stderr, "thothsim: unknown trace format %q (jsonl|chrome)\n", *traceFormat)
			return 1
		}
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

	if *shards > 0 {
		return runPoolBench(cfg, *shards, *txs, *persistBatch, *crash, *verify,
			*recoveryWorkers, *flightDir, stdout, stderr)
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
		if err := res.Runner.Controller().Crash(res.Runner.Now()); err != nil {
			fmt.Fprintln(stderr, "thothsim: crash flush:", err)
			return 1
		}
		if *flightDir != "" {
			rec := res.Runner.Controller().FlightRecord()
			if err := dumpFlight(*flightDir, "flight.jsonl", rec, stdout); err != nil {
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

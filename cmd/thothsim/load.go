package main

// The `thothsim load` subcommand: open-loop multi-tenant traffic
// against a sharded engine pool (one controller at -shards 0 or 1,
// where the pool routes by the identity map). Unlike
// the workload harness (closed-loop: each transaction starts when the
// previous one finishes), the load generator draws arrival times from a
// seeded stochastic process, so queueing delay is part of every
// measured latency and overload shows up as tail growth rather than
// reduced throughput. The scenario matrix, arrival processes, key
// patterns and the latency pipeline live in internal/loadgen; this file
// is flag parsing, pool construction and the stable report.

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/scheme"
)

// loadQuant renders a histogram quantile (a power of two, 0 or +Inf)
// for the CLI report.
func loadQuant(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.0f", v)
}

// runLoad implements `thothsim load`: resolve the scenario, apply the
// population/budget overrides, drive the open loop to completion and
// print the deterministic report (latency percentiles from the metrics
// histograms, the event-stream hash, the modeled controller stats).
// Only the wall-clock line goes to stderr — stdout is seeded-run
// reproducible and golden-tested.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thothsim load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scnName := fs.String("scenario", "steady",
		"traffic scenario: "+strings.Join(loadgen.ScenarioNames(), "|"))
	list := fs.Bool("list", false, "list the scenario matrix and exit")
	tenants := fs.Int("tenants", 0, "tenant population (0 = the scenario default)")
	shards := fs.Int("shards", 0, "drive a sharded pool at N controllers (0|1 = one controller)")
	ops := fs.Int64("ops", 0, "total operation budget (0 = the scenario default)")
	durationMs := fs.Float64("duration", 0,
		"stop at this much modeled time in milliseconds (0 = the op budget alone; "+
			"when set without -ops the op budget is lifted)")
	seed := fs.Int64("seed", 0, "scenario seed override (0 = the scenario default)")
	schemeStr := fs.String("scheme", "thoth-wtsc",
		"persistence scheme: "+strings.Join(scheme.Names(), "|"))
	block := fs.Int("block", 128, "cache block size in bytes (64|128|256)")
	pubKiB := fs.Int64("pub", 1024, "PUB size in KiB")
	top := fs.Int("top", 0, "also report the N tenants with the worst p99")
	check := fs.Bool("check", false,
		"record the raw latency stream and verify every histogram percentile "+
			"against an exact recomputation (within one log2 bucket)")
	attr := fs.Bool("attr", false,
		"decompose every op's latency into pipeline-stage cycles "+
			"(queue/fetch/crypto/tree/wpq/persist) and print the attribution report; "+
			"conservation — stages summing exactly to the latency — is enforced per op")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "thothsim load: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if n := negativeFlag(fs, "tenants", "shards", "ops", "duration", "top"); n != "" {
		fmt.Fprintf(stderr, "thothsim load: -%s must not be negative\n", n)
		return 2
	}

	if *list {
		for _, s := range loadgen.Scenarios() {
			fmt.Fprintf(stdout, "%-8s %s\n", s.Name, s.Desc)
		}
		return 0
	}

	scn, err := loadgen.ScenarioByName(*scnName)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	if *tenants > 0 {
		scn.Tenants = *tenants
	}
	if *ops > 0 {
		scn.Ops = *ops
	}
	if *seed != 0 {
		scn.Seed = *seed
	}

	sch, err := scheme.Parse(*schemeStr)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	cfg := config.Default().WithScheme(sch).WithBlockSize(*block)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = *pubKiB << 10
	cfg.LLCBytes = 1 << 20

	if *durationMs > 0 {
		scn.DurationCycles = int64(*durationMs * cfg.CPUFreqGHz * 1e6)
		if *ops == 0 {
			scn.Ops = 0 // the modeled horizon is the budget
		}
	}

	nShards := max(*shards, 1)
	pool, err := engine.New(cfg, nShards)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	d, err := loadgen.NewDriver(scn, loadgen.NewPoolTarget(pool), cfg, nil, loadgen.Options{
		RecordLatencies: *check,
		Attribution:     *attr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}

	fmt.Fprintf(stdout, "load scenario=%s scheme=%v block=%dB tenants=%d shards=%d seed=%d\n",
		scn.Name, sch, *block, scn.Tenants, nShards, scn.Seed)

	start := time.Now()
	if err := d.Run(); err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wall %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Fprint(stdout, d.Summary().String())
	if *attr {
		a, err := d.Attribution()
		if err != nil {
			fmt.Fprintln(stderr, "thothsim load:", err)
			return 1
		}
		printAttribution(stdout, a, *top)
	}
	if *top > 0 {
		ts := d.TenantSummaries()
		if len(ts) > *top {
			ts = ts[:*top]
		}
		fmt.Fprintf(stdout, "top %d tenants by p99 latency:\n", len(ts))
		for _, s := range ts {
			fmt.Fprintf(stdout, "  tenant %04d: %d ops, p50/p95/p99 %s / %s / %s cycles\n",
				s.Tenant, s.Ops, loadQuant(s.P50), loadQuant(s.P95), loadQuant(s.P99))
		}
	}
	st, err := pool.Stats()
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	fmt.Fprintln(stdout, st.String())

	if *check {
		if err := d.CheckQuantiles(); err != nil {
			fmt.Fprintln(stderr, "thothsim load:", err)
			return 1
		}
		fmt.Fprintln(stdout,
			"quantile check: every histogram percentile matches the exact recomputation "+
				"(bucket upper bound, within one log2 bucket)")
	}
	if _, err := pool.Shutdown(); err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	return 0
}

// printAttribution renders the attribution report: the aggregate stage
// breakdown always, plus per-tenant rows — the -top count when set,
// otherwise up to eight — with a truncation note for the rest.
func printAttribution(w io.Writer, a loadgen.Attribution, top int) {
	limit := top
	if limit <= 0 {
		limit = 8
	}
	shown := a.Tenants
	if len(shown) > limit {
		shown = shown[:limit]
	}
	trimmed := a
	trimmed.Tenants = shown
	fmt.Fprint(w, trimmed.String())
	if rest := len(a.Tenants) - len(shown); rest > 0 {
		fmt.Fprintf(w, "  (… %d more tenants; raise -top to widen)\n", rest)
	}
}

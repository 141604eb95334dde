package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// serveSim is the long-running simulation behind `thothsim serve`: one
// traffic source driven in rounds, feeding one metrics registry that
// the HTTP handlers read concurrently (the registry is built on
// atomics). The /statsz document is rebuilt at each round boundary and
// swapped in under a mutex, because the stats it reads are not atomic.
type serveSim struct {
	reg     *metrics.Registry
	src     traffic
	info    scheme.Info
	sampler *metrics.Sampler
	rounds  int64 // completed rounds; only the serving loop touches it
	cycle   int64 // modeled cycle after the latest round, likewise

	mu  sync.Mutex
	doc any // the /statsz document
}

// traffic is one source of serve-mode work: the workload harness, the
// sharded pool's persist batches or the open-loop load generator.
type traffic interface {
	// round runs one round of work.
	round() error
	// snapshot returns the /statsz document after the given number of
	// completed rounds, and the modeled cycle they reached.
	snapshot(rounds int64) (doc any, cycle int64, err error)
}

// startServeSim wraps a traffic source whose work feeds reg and
// publishes its round-0 snapshot.
func startServeSim(reg *metrics.Registry, src traffic, info scheme.Info, sampleEvery int64) (*serveSim, error) {
	s := &serveSim{
		reg:     reg,
		src:     src,
		info:    info,
		sampler: metrics.NewSampler(reg, sampleEvery, 0, nil),
	}
	if err := s.publish(); err != nil {
		return nil, err
	}
	return s, nil
}

// round executes one round of work and refreshes the /statsz document
// and the time-series sampler.
func (s *serveSim) round() error {
	if err := s.src.round(); err != nil {
		return err
	}
	s.rounds++
	return s.publish()
}

func (s *serveSim) publish() error {
	doc, cycle, err := s.src.snapshot(s.rounds)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.doc = doc
	s.mu.Unlock()
	s.cycle = cycle
	s.sampler.Tick(cycle)
	return nil
}

func (s *serveSim) statsz() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc
}

// harnessTraffic runs rounds of benchmark transactions on a harness
// runner, which feeds the registry through both seams: the FromTracer
// adapter for event-derived metrics and Config.Metrics for the
// controller's native histograms.
type harnessTraffic struct {
	runner   *harness.Runner
	workload string
	roundTxs int
}

// newServeSim builds the runner (setup + warm-up + Thoth PUB prefill +
// stats reset, mirroring harness.Run's measurement protocol) with the
// registry attached. extra, when non-nil, also receives every event —
// the differential test uses it to record the JSONL trace that
// cmd/tracemetrics replays.
func newServeSim(cfg config.Config, workload string, setupKeys, warmupTxs, roundTxs int, sampleEvery int64, extra obs.Tracer) (*serveSim, error) {
	if roundTxs <= 0 {
		return nil, fmt.Errorf("serve: round size %d must be positive", roundTxs)
	}
	reg := metrics.New()
	var tr obs.Tracer = metrics.FromTracer(reg)
	if extra != nil {
		tr = obs.Multi(extra, tr)
	}
	r, err := harness.NewRunner(harness.RunConfig{
		Config:    cfg,
		Workload:  workload,
		SetupKeys: setupKeys,
		Tracer:    tr,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	r.Setup()
	if warmupTxs > 0 {
		r.RunTxs(warmupTxs)
	}
	if scheme.UsesPUB(cfg.Scheme) {
		if err := r.Controller().PrefillPUB(); err != nil {
			return nil, fmt.Errorf("serve: prefill: %w", err)
		}
	}
	r.Controller().ResetStats()
	src := &harnessTraffic{runner: r, workload: workload, roundTxs: roundTxs}
	return startServeSim(reg, src, r.Controller().SchemeInfo(), sampleEvery)
}

func (h *harnessTraffic) round() error {
	h.runner.RunTxs(h.roundTxs)
	h.runner.Controller().SyncStats()
	return nil
}

// statsz is the JSON document served at /statsz.
type statsz struct {
	Scheme           string           `json:"scheme"`
	SchemeGuarantees string           `json:"scheme_guarantees"`
	SchemeTunables   []scheme.Tunable `json:"scheme_tunables,omitempty"`
	Workload         string           `json:"workload"`
	Rounds           int64            `json:"rounds"`
	Cycle            int64            `json:"cycle"`
	Transactions     int64            `json:"transactions"`
	TotalWrites      int64            `json:"total_writes"`
	NVMReads         int64            `json:"nvm_reads"`
	CtrHitRate       float64          `json:"ctr_hit_rate"`
	MACHitRate       float64          `json:"mac_hit_rate"`
	MTHitRate        float64          `json:"mt_hit_rate"`
	PCBMergeRate     float64          `json:"pcb_merge_rate"`
	WPQStalls        int64            `json:"wpq_stall_cycles"`
	PUBEvictions     int64            `json:"pub_evictions"`
	CtrOverflows     int64            `json:"ctr_overflows"`
}

func (h *harnessTraffic) snapshot(rounds int64) (any, int64, error) {
	ctl := h.runner.Controller()
	snap := ctl.Stats()
	info := ctl.SchemeInfo()
	cycle := h.runner.Now()
	return statsz{
		Scheme:           info.Name,
		SchemeGuarantees: info.Guarantees,
		SchemeTunables:   info.Tunables,
		Workload:         h.workload,
		Rounds:           rounds,
		Cycle:            cycle,
		// The controller does not count transactions (harness.Run
		// stamps them from its own config); the serve loop is the
		// driver here, so it owns the tally.
		Transactions: rounds * int64(h.roundTxs),
		TotalWrites:  snap.TotalWrites(),
		NVMReads:     snap.NVMReads,
		CtrHitRate:   snap.CtrHitRate(),
		MACHitRate:   snap.MACHitRate(),
		MTHitRate:    snap.MTHitRate(),
		PCBMergeRate: snap.PCBMergeRate(),
		WPQStalls:    snap.WPQStallCycles,
		PUBEvictions: snap.PUBEvictions,
		CtrOverflows: snap.CtrOverflows,
	}, cycle, nil
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// serveSampleCycles is the default gauge time-series sampling period in
// modeled cycles (the -sample flag overrides it).
const serveSampleCycles = 50000

// mux builds the serve-mode HTTP handler: /metrics (Prometheus text
// format), /statsz (JSON snapshot), /timeseries (the gauge/counter ring
// sampler's window as JSON), /debug/vars (expvar, including the
// registry bridge) and /debug/pprof/*.
func (s *serveSim) mux() *http.ServeMux {
	metrics.Publish("thoth", s.reg)
	m := http.NewServeMux()
	m.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		if err := metrics.WriteProm(w, s.reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/timeseries", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.sampler.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.statsz()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		http.DefaultServeMux.ServeHTTP(w, r) // expvar registers itself there
	})
	return m
}

// runServe implements the `thothsim serve` subcommand: boot the
// simulation, expose it over HTTP, and run workload rounds until the
// round budget is exhausted (-rounds) or an interrupt arrives
// (-rounds 0).
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thothsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
	wl := fs.String("workload", "btree", "benchmark: btree|ctree|hashmap|rbtree|swap")
	schemeStr := fs.String("scheme", "thoth-wtsc",
		"persistence scheme: "+strings.Join(scheme.Names(), "|"))
	block := fs.Int("block", 128, "cache block size in bytes (64|128|256)")
	tx := fs.Int("tx", 128, "transaction size in bytes")
	setup := fs.Int("setup", 16384, "benchmark population")
	warmup := fs.Int("warmup", 1200, "warm-up transactions (before metrics reset)")
	round := fs.Int("round", 2000, "transactions per serving round")
	rounds := fs.Int("rounds", 0, "rounds to run before exiting (0 = until interrupted)")
	pubKiB := fs.Int64("pub", 1024, "PUB size in KiB")
	shards := fs.Int("shards", 0,
		"serve a sharded pool at N controllers instead of the workload harness "+
			"(rounds persist -round seeded random blocks; 0 = single-controller harness)")
	loadScn := fs.String("load", "",
		"serve an open-loop load scenario instead of the workload harness "+
			"("+strings.Join(loadgen.ScenarioNames(), "|")+"; rounds issue -round ops; "+
			"combine with -shards for a pooled target)")
	tenants := fs.Int("tenants", 0, "tenant population for -load (0 = the scenario default)")
	sample := fs.Int64("sample", serveSampleCycles,
		"gauge time-series sampling period in modeled cycles (/timeseries window)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 0 {
		fmt.Fprintln(stderr, "thothsim serve: -shards must not be negative")
		return 2
	}

	sch, err := scheme.Parse(*schemeStr)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}
	cfg := config.Default().
		WithScheme(sch).
		WithBlockSize(*block).
		WithTxSize(*tx)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = *pubKiB << 10
	cfg.LLCBytes = 1 << 20

	var sim *serveSim
	served := *wl
	switch {
	case *loadScn != "":
		served = fmt.Sprintf("load(%s)", *loadScn)
		if *shards > 0 {
			served = fmt.Sprintf("load(%s, %d shards)", *loadScn, *shards)
		}
		sim, err = newLoadServeSim(cfg, *loadScn, *tenants, *shards, *round, *sample)
	case *shards > 0:
		served = fmt.Sprintf("pool(%d shards)", *shards)
		sim, err = newPoolServeSim(cfg, *shards, *round, *sample)
	default:
		sim, err = newServeSim(cfg, *wl, *setup, *warmup, *round, *sample, nil)
	}
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "serving workload=%s scheme=%v on http://%s  (/metrics /statsz /debug/pprof/ /debug/vars)\n",
		served, sch, ln.Addr())
	return serveWith(sim, ln, *rounds, *round, stdout, stderr)
}

// newServeServer builds the serve-mode HTTP server. A client that
// dribbles its request header one byte at a time (slowloris) must not
// pin a connection forever, hence ReadHeaderTimeout; no WriteTimeout,
// though — /debug/pprof/profile and /debug/pprof/trace stream for a
// caller-chosen duration.
func newServeServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveWith runs the serving loop over an already-bound listener: rounds
// of transactions until the budget is exhausted (-rounds 0 = until
// interrupted), with the HTTP server's failure, a simulation failure or
// an interrupt breaking the loop.
func serveWith(sim *serveSim, ln net.Listener, rounds, roundTxs int, stdout, stderr io.Writer) int {
	srv := newServeServer(sim.mux())
	// Serve's error must not be dropped: a listener failure mid-run
	// (socket closed underneath us, fd exhaustion) should stop the
	// simulation loop and exit non-zero instead of silently serving
	// nothing. The channel is buffered so the goroutine never leaks if
	// the loop exits first.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	// shutdown drains in-flight requests before exit; the deadline keeps
	// a stuck streaming handler from wedging the process (the deferred
	// Close above is the backstop).
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	info := sim.info
	fmt.Fprintf(stdout, "scheme %s: %s\n", info.Name, info.Guarantees)
	for _, tun := range info.Tunables {
		fmt.Fprintf(stdout, "  %s=%s\n", tun.Name, tun.Value)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	for n := 0; rounds == 0 || n < rounds; n++ {
		select {
		case <-interrupt:
			fmt.Fprintln(stdout, "interrupted; shutting down")
			shutdown()
			return 0
		case err := <-serveErr:
			// Shutdown has not been called yet, so this is never
			// ErrServerClosed — the listener genuinely failed.
			fmt.Fprintln(stderr, "thothsim serve:", err)
			return 1
		default:
		}
		if err := sim.round(); err != nil {
			fmt.Fprintln(stderr, "thothsim serve:", err)
			shutdown()
			return 1
		}
	}
	fmt.Fprintf(stdout, "completed %d rounds (%d txs) at cycle %d\n",
		rounds, rounds*roundTxs, sim.cycle)
	shutdown()
	return 0
}

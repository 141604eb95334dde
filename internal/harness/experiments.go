package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sets the simulation magnitude for the experiment suite. The
// paper runs at least 5000 transactions per core on gem5 with a 64MB
// PUB; this model reproduces the same mechanics at a configurable scale
// — the PUB is sized so that the warm-up phase reaches the eviction
// threshold (the paper achieves the same by fast-forwarding and
// prefilling, Section V-A), and transaction counts trade runtime for
// statistical stability.
type Scale struct {
	WarmupTxs  int
	MeasureTxs int
	SetupKeys  int
	PUBBytes   int64
	MemBytes   int64
	LLCBytes   int
}

// DefaultScale runs a full experiment in a few seconds per configuration.
func DefaultScale() Scale {
	return Scale{
		WarmupTxs:  1200,
		MeasureTxs: 6000,
		SetupKeys:  16384,
		PUBBytes:   1 << 20,
		MemBytes:   1 << 30,
		LLCBytes:   1 << 20,
	}
}

// QuickScale is for smoke tests: an order of magnitude smaller.
func QuickScale() Scale {
	return Scale{
		WarmupTxs:  300,
		MeasureTxs: 1000,
		SetupKeys:  2048,
		PUBBytes:   256 << 10,
		MemBytes:   1 << 30,
		LLCBytes:   1 << 20,
	}
}

// apply stamps the scale onto a machine configuration.
func (sc Scale) apply(cfg config.Config) config.Config {
	cfg.MemBytes = sc.MemBytes
	cfg.PUBBytes = sc.PUBBytes
	cfg.LLCBytes = sc.LLCBytes
	return cfg
}

// Experiments memoizes simulation runs shared between figures and
// executes independent runs in parallel.
type Experiments struct {
	Scale   Scale
	Out     io.Writer
	Workers int
	// Tracer, when non-nil, receives the controller events of every run
	// the suite executes. Runs execute in parallel worker goroutines, so
	// the tracer must be safe for concurrent use (the obs sinks are).
	// The run memo ignores it: tracing does not change results.
	Tracer obs.Tracer
	// Zoo, when non-empty, replaces the default comparison set of the
	// Schemes experiment (the CLI's -schemes flag).
	Zoo []config.Scheme

	mu    sync.Mutex
	cache map[RunConfig]*Result
}

// NewExperiments builds an experiment driver writing reports to out.
func NewExperiments(sc Scale, out io.Writer) *Experiments {
	return &Experiments{
		Scale:   sc,
		Out:     out,
		Workers: runtime.GOMAXPROCS(0),
		cache:   make(map[RunConfig]*Result),
	}
}

// runConfig builds the standard RunConfig for a machine configuration.
func (e *Experiments) runConfig(cfg config.Config, wl string) RunConfig {
	cfg.Tracer = e.Tracer
	return RunConfig{
		Config:     cfg,
		Workload:   wl,
		WarmupTxs:  e.Scale.WarmupTxs,
		MeasureTxs: e.Scale.MeasureTxs,
		SetupKeys:  e.Scale.SetupKeys,
	}
}

// runs returns the results of rcs, aligned with rcs. Results are
// memoized by the run configuration itself, with Config.Tracer cleared
// since tracing does not change results; runs not
// yet in the memo execute in parallel, at most Workers at a time (one
// at a time when Workers < 1). The first failure cancels the rest of
// the batch: runs not yet dispatched are skipped, and already-dispatched
// workers bail out before starting their simulation, so one poisoned
// configuration does not burn minutes executing the remaining matrix
// before the error surfaces.
func (e *Experiments) runs(rcs []RunConfig) ([]*Result, error) {
	keys := make([]RunConfig, len(rcs))
	var todo []int // first occurrence of each missing key
	e.mu.Lock()
	if e.cache == nil { // an Experiments built as a struct literal
		e.cache = make(map[RunConfig]*Result)
	}
	queued := map[RunConfig]bool{}
	for i, rc := range rcs {
		rc.Config.Tracer = nil
		keys[i] = rc
		if _, ok := e.cache[rc]; !ok && !queued[rc] {
			queued[rc] = true
			todo = append(todo, i)
		}
	}
	e.mu.Unlock()

	sem := make(chan struct{}, max(e.Workers, 1))
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	var failed atomic.Bool
	for _, i := range todo {
		if failed.Load() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(rc, key RunConfig) {
			defer wg.Done()
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			r, err := Run(rc)
			if err != nil {
				failed.Store(true)
				errOnce.Do(func() {
					firstErr = fmt.Errorf("run %s/%v: %w", rc.Workload, rc.Config.Scheme, err)
				})
				return
			}
			// Release heavyweight state not needed by report formatting.
			r.Runner = nil
			e.mu.Lock()
			e.cache[key] = r
			e.mu.Unlock()
		}(rcs[i], keys[i])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := make([]*Result, len(rcs))
	e.mu.Lock()
	for i, k := range keys {
		res[i] = e.cache[k]
	}
	e.mu.Unlock()
	return res, nil
}

// gmean returns the geometric mean of the values. Every value must be
// positive and finite: math.Log of a zero or negative speedup yields
// -Inf or NaN, which used to flow straight into the report as "NaN"
// instead of failing the experiment.
func gmean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("gmean: no values")
	}
	sum := 0.0
	for i, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("gmean: value %d is %v, need positive finite values", i, v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// mean returns the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// blockSizes are the cache blocks of every per-block report, and
// txSizes (headed txLabels) the transaction sizes of Figure 10 and
// Tables II/III.
var (
	blockSizes = []int{128, 256}
	txSizes    = []int{128, 512, 1024, 2048}
	txLabels   = []string{"tx=128B", "tx=512B", "tx=1024B", "tx=2048B"}
)

// speedup, writeRatio and overhead are the cells of the comparison
// tables: test measured against ref on the same workload.
func speedup(ref, test *Result) float64 {
	return float64(ref.Stats.Cycles) / float64(test.Stats.Cycles)
}

func writeRatio(ref, test *Result) float64 {
	return float64(test.Stats.TotalWrites()) / float64(ref.Stats.TotalWrites())
}

func overhead(ref, test *Result) float64 {
	return float64(test.Stats.Cycles)/float64(ref.Stats.Cycles) - 1
}

// column is one comparison of a table: test against ref, each run on
// every workload.
type column struct {
	label     string
	ref, test config.Config
}

// vsBaseline compares scheme s with the strict baseline on machine m.
func vsBaseline(label string, m config.Config, s config.Scheme) column {
	return column{label, m.WithScheme(config.BaselineStrict), m.WithScheme(s)}
}

// compareTable is a report with a row per workload and a column per
// comparison, closed by a summary row over the workloads.
type compareTable struct {
	title string
	cols  []column
	cell  func(ref, test *Result) float64
	width int    // column width
	pct   bool   // cells are fractions printed as percentages
	sum   string // summary row label: the geometric mean if "gmean", else the mean
	note  string // ends the summary row
}

// text formats one cell or summary value.
func (t *compareTable) text(v float64) string {
	if t.pct {
		return fmt.Sprintf(" %*.1f%%", t.width-1, 100*v)
	}
	return fmt.Sprintf(" %*.3f", t.width, v)
}

// compare prints the tables of one report from a single batch of runs.
func (e *Experiments) compare(ts ...compareTable) error {
	wls := workload.Names()
	var rcs []RunConfig
	for _, t := range ts {
		for _, wl := range wls {
			for _, c := range t.cols {
				rcs = append(rcs, e.runConfig(c.ref, wl), e.runConfig(c.test, wl))
			}
		}
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	for _, t := range ts {
		fmt.Fprintf(e.Out, "\n%s\n%-10s", t.title, "workload")
		for _, c := range t.cols {
			fmt.Fprintf(e.Out, " %*s", t.width, c.label)
		}
		fmt.Fprintln(e.Out)
		vals := make([][]float64, len(t.cols))
		for _, wl := range wls {
			fmt.Fprintf(e.Out, "%-10s", wl)
			for i := range t.cols {
				v := t.cell(res[0], res[1])
				res = res[2:]
				vals[i] = append(vals[i], v)
				fmt.Fprint(e.Out, t.text(v))
			}
			fmt.Fprintln(e.Out)
		}
		fmt.Fprintf(e.Out, "%-10s", t.sum)
		for i, c := range t.cols {
			v := mean(vals[i])
			if t.sum == "gmean" {
				if v, err = gmean(vals[i]); err != nil {
					return fmt.Errorf("%s, %s: %w", t.title, c.label, err)
				}
			}
			fmt.Fprint(e.Out, t.text(v))
		}
		fmt.Fprintf(e.Out, "%s\n", t.note)
	}
	return nil
}

// machineRow is one row of a transaction-size table.
type machineRow struct {
	label string
	m     config.Config
}

// txTable is Table II or III: a row per machine and a column per
// transaction size, each cell a percentage averaged over the workloads.
type txTable struct {
	title  string
	head   string // heading of the row-label column
	width  int    // width of the row-label column
	rows   []machineRow
	metric func(*Result) float64
	note   string
}

// txMeans prints a transaction-size table from a single batch of runs.
func (e *Experiments) txMeans(t txTable) error {
	wls := workload.Names()
	var rcs []RunConfig
	for _, row := range t.rows {
		for _, tx := range txSizes {
			for _, wl := range wls {
				rcs = append(rcs, e.runConfig(row.m.WithTxSize(tx), wl))
			}
		}
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\n%s\n%-*s", t.title, t.width, t.head)
	for _, l := range txLabels {
		fmt.Fprintf(e.Out, " %9s", l)
	}
	fmt.Fprintln(e.Out)
	for _, row := range t.rows {
		fmt.Fprintf(e.Out, "%-*s", t.width, row.label)
		for range txSizes {
			var vs []float64
			for _, r := range res[:len(wls)] {
				vs = append(vs, t.metric(r))
			}
			res = res[len(wls):]
			fmt.Fprintf(e.Out, " %8.2f%%", mean(vs))
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintln(e.Out, t.note)
	return nil
}

// machine is the Table I configuration at the suite's scale; like
// config.Default it runs Thoth WTSC.
func (e *Experiments) machine() config.Config { return e.Scale.apply(config.Default()) }

// Fig3 reproduces Figure 3: the breakdown of PUB-eviction outcomes for
// FIFO buffers of 500,000 / 5,000 / 50 entries (scaled by the same
// factor as the suite's PUB if the default scale is reduced).
func (e *Experiments) Fig3() error {
	sizes := []struct {
		label   string
		entries int64
	}{{"A=500000", 500000}, {"B=5000", 5000}, {"C=50", 50}}
	wls := workload.Names()
	var rcs []RunConfig
	for _, sz := range sizes {
		cfg := e.machine()
		blocks := sz.entries / int64(cfg.PartialsPerBlock())
		if blocks < 4 {
			blocks = 4
		}
		cfg.PUBBytes = blocks * int64(cfg.BlockSize)
		// Tiny hypothetical buffers need a smaller PCB so the ring can
		// still absorb the crash-time flush.
		if int64(cfg.PCBEntries) > blocks-2 {
			cfg.PCBEntries = int(blocks - 2)
		}
		for _, wl := range wls {
			rcs = append(rcs, e.runConfig(cfg, wl))
		}
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}

	fmt.Fprintf(e.Out, "\nFigure 3: PUB eviction outcome breakdown (%% of evicted partial updates)\n")
	fmt.Fprintf(e.Out, "%-10s %-10s %13s %16s %11s %11s %12s\n",
		"buffer", "workload", "written-back", "already-evicted", "clean-copy", "stale-copy", "no-write(%)")
	for _, sz := range sizes {
		var noWrite []float64
		for _, wl := range wls {
			st := &res[0].Stats
			res = res[1:]
			wb := 100 * st.EvictShare(stats.EvictWrittenBack)
			ae := 100 * st.EvictShare(stats.EvictAlreadyEvicted)
			cc := 100 * st.EvictShare(stats.EvictCleanCopy)
			sc := 100 * st.EvictShare(stats.EvictStaleCopy)
			nw := 100 - wb
			noWrite = append(noWrite, nw)
			fmt.Fprintf(e.Out, "%-10s %-10s %13.1f %16.1f %11.1f %11.1f %12.1f\n",
				sz.label, wl, wb, ae, cc, sc, nw)
		}
		fmt.Fprintf(e.Out, "%-10s %-10s %13s %16s %11s %11s %12.1f  (paper: larger buffers -> ~99.5%% no-write)\n",
			sz.label, "average", "", "", "", "", mean(noWrite))
	}
	return nil
}

// schemeCols are the columns of Figures 8 and 9: Thoth's WTSC and WTBC
// against the baseline at 128B and 256B cache blocks.
func (e *Experiments) schemeCols() []column {
	var cols []column
	for _, blk := range blockSizes {
		m := e.machine().WithBlockSize(blk)
		cols = append(cols,
			vsBaseline(fmt.Sprintf("%dB/WTSC", blk), m, config.ThothWTSC),
			vsBaseline(fmt.Sprintf("%dB/WTBC", blk), m, config.ThothWTBC))
	}
	return cols
}

// Fig8 reproduces Figure 8: speedup of Thoth (WTSC and WTBC) over the
// baseline at 128B transactions for 128B and 256B cache blocks.
func (e *Experiments) Fig8() error {
	return e.compare(compareTable{
		title: "Figure 8: Speedup over adapted-Anubis baseline (tx=128B)",
		cols:  e.schemeCols(), cell: speedup, width: 14, sum: "gmean",
		note: "\n(paper averages: 1.22x at 128B, 1.16x at 256B; swap ~1.0x)",
	})
}

// Fig9 reproduces Figure 9: write traffic of Thoth (WTSC/WTBC) relative
// to the baseline, plus the write-category breakdown quoted in V-B.
func (e *Experiments) Fig9() error {
	if err := e.compare(compareTable{
		title: "Figure 9: NVM writes, normalized to baseline (tx=128B)",
		cols:  e.schemeCols(), cell: writeRatio, width: 12, sum: "mean",
		note: "\n(paper: -32% at 128B, -37% at 256B => ratios 0.68 / 0.63)",
	}); err != nil {
		return err
	}

	// Category breakdown (V-B quotes baseline ctr=24.37%, mac=29.7%;
	// Thoth pcb=3.95%, ctr=6.81%, mac=9.46%).
	schemes := []config.Scheme{config.BaselineStrict, config.ThothWTSC}
	wls := workload.Names()
	var rcs []RunConfig
	for _, wl := range wls {
		for _, s := range schemes {
			rcs = append(rcs, e.runConfig(e.machine().WithScheme(s), wl))
		}
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nWrite-category breakdown (128B blocks, %% of each scheme's total writes)\n")
	fmt.Fprintf(e.Out, "%-10s %-15s %8s %8s %8s %8s %8s %8s\n",
		"workload", "scheme", "data", "counter", "mac", "pcb", "tree", "other")
	for _, wl := range wls {
		for _, s := range schemes {
			st := &res[0].Stats
			res = res[1:]
			fmt.Fprintf(e.Out, "%-10s %-15s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				wl, s,
				100*st.WriteShare(stats.WriteData), 100*st.WriteShare(stats.WriteCounter),
				100*st.WriteShare(stats.WriteMAC), 100*st.WriteShare(stats.WritePCB),
				100*st.WriteShare(stats.WriteTree), 100*st.WriteShare(stats.WriteOther))
		}
	}
	return nil
}

// blockSweep builds the two tables (128B and 256B cache blocks) of a
// WTSC speedup sweep: column i compares WTSC with the baseline on the
// machine knob(m, i). title takes the block size; note ends the second
// table.
func (e *Experiments) blockSweep(title string, width int, labels []string,
	knob func(m config.Config, i int) config.Config, note string) []compareTable {
	var ts []compareTable
	for _, blk := range blockSizes {
		t := compareTable{title: fmt.Sprintf(title, blk), cell: speedup, width: width, sum: "gmean"}
		for i, label := range labels {
			t.cols = append(t.cols, vsBaseline(label, knob(e.machine().WithBlockSize(blk), i), config.ThothWTSC))
		}
		ts = append(ts, t)
	}
	ts[len(ts)-1].note = note
	return ts
}

// Fig10 reproduces Figure 10: speedup versus transaction size.
func (e *Experiments) Fig10() error {
	return e.compare(e.blockSweep("Figure 10: Speedup vs transaction size (%dB cache block, WTSC)", 9, txLabels,
		func(m config.Config, i int) config.Config { return m.WithTxSize(txSizes[i]) },
		"\n(paper averages 128B blk: 1.22/1.23/1.19/1.19; 256B blk: 1.16/1.17/1.14/1.19)")...)
}

// Table2 reproduces Table II: the average percentage of total NVM writes
// that are ciphertext (data) writes, for baseline and Thoth across
// transaction sizes and block sizes.
func (e *Experiments) Table2() error {
	var rows []machineRow
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
		for _, blk := range blockSizes {
			rows = append(rows, machineRow{fmt.Sprintf("%v(blk=%dB)", s, blk), e.machine().WithBlockSize(blk).WithScheme(s)})
		}
	}
	return e.txMeans(txTable{
		title: "Table II: Average % of writes that are ciphertext",
		head:  "config", width: 28, rows: rows,
		metric: func(r *Result) float64 { return 100 * r.Stats.WriteShare(stats.WriteData) },
		note:   "(paper: baseline 45-58%, Thoth 67-76%, rising with tx size)",
	})
}

// Table3 reproduces Table III: the average percentage of partial updates
// merged in the PCB across transaction sizes and block sizes.
func (e *Experiments) Table3() error {
	var rows []machineRow
	for _, blk := range blockSizes {
		rows = append(rows, machineRow{fmt.Sprintf("blk=%dB", blk), e.machine().WithBlockSize(blk)})
	}
	return e.txMeans(txTable{
		title: "Table III: Average % of partial updates merged in the PCB",
		head:  "cache block", width: 20, rows: rows,
		metric: func(r *Result) float64 { return 100 * r.Stats.PCBMergeRate() },
		note: "(paper: 74->34% for 128B blk, 88->63% for 256B blk as tx grows;\n" +
			" shape: merge rate falls with tx size, 256B blocks merge more)",
	})
}

// Fig11 reproduces Figure 11: speedup sensitivity to the counter/MAC
// cache sizes (64k/128k, 512k/1M, 1M/2M).
func (e *Experiments) Fig11() error {
	caches := []struct{ ctr, mac int }{{64 << 10, 128 << 10}, {512 << 10, 1 << 20}, {1 << 20, 2 << 20}}
	return e.compare(e.blockSweep("Figure 11: Speedup vs counter/MAC cache size (%dB cache block, WTSC)", 10,
		[]string{"64k/128k", "512k/1M", "1M/2M"},
		func(m config.Config, i int) config.Config { return m.WithMetadataCaches(caches[i].ctr, caches[i].mac) },
		"\n(paper: 1.22->1.34 at 128B blk, 1.16->1.28 at 256B blk: larger caches help Thoth)")...)
}

// Fig12 reproduces Figure 12: speedup sensitivity to WPQ size (64/32/16
// entries; Thoth reserves 1/8 of entries for the PCB).
func (e *Experiments) Fig12() error {
	wpqs := []int{64, 32, 16}
	return e.compare(e.blockSweep("Figure 12: Speedup vs WPQ size (%dB cache block, WTSC)", 10,
		[]string{"WPQ=64", "WPQ=32", "WPQ=16"},
		func(m config.Config, i int) config.Config { return m.WithWPQ(wpqs[i]) },
		"\n(paper: 1.22/1.48/1.65 at 128B blk, 1.16/1.50/1.81 at 256B: smaller WPQ widens the gap)")...)
}

// SecVF reproduces the Section V-F comparison: Thoth's overhead versus
// the hypothetical Anubis-with-ECC ideal (paper: ~7% on average).
func (e *Experiments) SecVF() error {
	m := e.machine()
	return e.compare(compareTable{
		title: "Section V-F: Thoth overhead vs Anubis-with-ECC ideal (128B blocks)",
		cols:  []column{{"overhead", m.WithScheme(config.AnubisECC), m.WithScheme(config.ThothWTSC)}},
		cell:  overhead, width: 16, pct: true, sum: "average",
		note: "  (paper: ~7% average)",
	})
}

// Recovery runs the crash/recovery experiment: each workload runs, the
// machine crashes mid-stream, recovery merges the PUB and verifies the
// tree, and the analytic recovery time for the paper's full 64MB PUB is
// reported (paper: ~7s).
func (e *Experiments) Recovery() error {
	fmt.Fprintf(e.Out, "\nSection IV-D: Crash recovery (WTSC)\n")
	fmt.Fprintf(e.Out, "%-10s %10s %10s %10s %10s %8s %12s\n",
		"workload", "pubBlocks", "entries", "mergedCtr", "mergedMAC", "rootOK", "est(64MB)")
	full := config.Default()
	fullEst := recovery.EstimateSeconds(full, full.PUBBlocks())
	for _, wl := range workload.Names() {
		cfg := e.Scale.apply(config.Default().WithScheme(config.ThothWTSC))
		rc := e.runConfig(cfg, wl)
		rc.MeasureTxs = e.Scale.MeasureTxs / 4
		res, err := Run(rc)
		if err != nil {
			return err
		}
		ctl := res.Runner.Controller()
		if err := ctl.Crash(res.Runner.Now()); err != nil {
			return fmt.Errorf("crash(%s): %w", wl, err)
		}
		rep, err := recovery.Recover(cfg, ctl.Device())
		if err != nil {
			return fmt.Errorf("recovery(%s): %w", wl, err)
		}
		fmt.Fprintf(e.Out, "%-10s %10d %10d %10d %10d %8v %11.2fs\n",
			wl, rep.PUBBlocks, rep.PUBEntries, rep.MergedCtr, rep.MergedMAC,
			rep.RootVerified, fullEst)
	}
	fmt.Fprintf(e.Out, "(paper: ~7s added recovery time for a 64MB PUB)\n")
	return nil
}

// EADRAblation is an extension experiment covering the paper's explicit
// future work (Section II-B): with enhanced ADR the cache hierarchy is
// persistent, clwb/sfence leave the critical path, and the data reaches
// NVM only on natural evictions — shrinking both the write stream and
// the gap between schemes (at the platform cost the paper cites as the
// reason eADR is often disabled).
func (e *Experiments) EADRAblation() error {
	eadr := e.machine()
	eadr.EADR = true
	wls := workload.Names()
	var rcs []RunConfig
	for _, wl := range wls {
		rcs = append(rcs,
			e.runConfig(e.machine().WithScheme(config.BaselineStrict), wl),
			e.runConfig(e.machine(), wl),
			e.runConfig(eadr, wl))
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nExtension: ADR vs eADR (future work in the paper, Section II-B)\n")
	fmt.Fprintf(e.Out, "%-10s %14s %14s %14s %12s %12s\n",
		"workload", "base/ADR cyc", "thoth/ADR cyc", "eADR cyc", "eADR gain", "eADR writes")
	for _, wl := range wls {
		base, th, ead := res[0], res[1], res[2]
		res = res[3:]
		fmt.Fprintf(e.Out, "%-10s %14d %14d %14d %11.2fx %11.1f%%\n",
			wl, base.Stats.Cycles, th.Stats.Cycles, ead.Stats.Cycles, speedup(th, ead),
			100*float64(ead.Stats.TotalWrites())/float64(th.Stats.TotalWrites()))
	}
	fmt.Fprintf(e.Out, "(persists leave the critical path; only natural evictions write during execution)\n")
	return nil
}

// PUBSize is an ablation over the PUB capacity (the design's central
// parameter, Section III): speedup and the fraction of PUB evictions
// that still require a write-back, as the buffer shrinks from the
// suite's default toward nothing.
func (e *Experiments) PUBSize() error {
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	wls := workload.Names()
	var rcs []RunConfig
	for _, wl := range wls {
		rcs = append(rcs, e.runConfig(e.machine().WithScheme(config.BaselineStrict), wl))
		for _, pub := range sizes {
			cfg := e.machine()
			cfg.PUBBytes = pub
			rcs = append(rcs, e.runConfig(cfg, wl))
		}
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nAblation: PUB size (WTSC, 128B blocks) — speedup / %%written-back at eviction\n")
	fmt.Fprintf(e.Out, "%-10s", "workload")
	for _, pub := range sizes {
		fmt.Fprintf(e.Out, " %14s", fmt.Sprintf("PUB=%dKiB", pub>>10))
	}
	fmt.Fprintln(e.Out)
	for _, wl := range wls {
		base := res[0]
		fmt.Fprintf(e.Out, "%-10s", wl)
		for _, th := range res[1 : 1+len(sizes)] {
			wb := 100 * th.Stats.EvictShare(stats.EvictWrittenBack)
			fmt.Fprintf(e.Out, "  %6.3f/%5.1f%%", speedup(base, th), wb)
		}
		res = res[1+len(sizes):]
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(larger PUBs turn more evictions into discards — the paper's central claim)\n")
	return nil
}

// Arrangement is the Section IV-C ablation: the adopted augmented
// PCB-before-WPQ versus the alternative PCB-after-WPQ. The paper reports
// the augmented before-arrangement "can minimize the pressure on the WPQ
// and obtain similar performance as in PCB-after-WPQ".
func (e *Experiments) Arrangement() error {
	after := e.machine()
	after.PCBAfterWPQ = true
	wls := workload.Names()
	var rcs []RunConfig
	for _, wl := range wls {
		rcs = append(rcs,
			e.runConfig(e.machine().WithScheme(config.BaselineStrict), wl),
			e.runConfig(e.machine(), wl),
			e.runConfig(after, wl))
	}
	res, err := e.runs(rcs)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nAblation: PCB arrangement (Section IV-C) — speedup over baseline\n")
	fmt.Fprintf(e.Out, "%-10s %16s %16s %14s %14s\n",
		"workload", "before-WPQ", "after-WPQ", "before wr", "after wr")
	var sb, sa []float64
	for _, wl := range wls {
		base, before, after := res[0], res[1], res[2]
		res = res[3:]
		b, a := speedup(base, before), speedup(base, after)
		sb = append(sb, b)
		sa = append(sa, a)
		fmt.Fprintf(e.Out, "%-10s %16.3f %16.3f %14d %14d\n",
			wl, b, a, before.Stats.TotalWrites(), after.Stats.TotalWrites())
	}
	gb, errB := gmean(sb)
	ga, errA := gmean(sa)
	if err := errors.Join(errB, errA); err != nil {
		return fmt.Errorf("arrangement: %w", err)
	}
	fmt.Fprintf(e.Out, "%-10s %16.3f %16.3f\n", "gmean", gb, ga)
	fmt.Fprintf(e.Out, "(paper: the augmented before-arrangement performs similarly to after-WPQ)\n")
	return nil
}

// experiments is the suite in report order: All runs every entry and
// ByName dispatches one by its CLI name.
var experiments = []struct {
	name string
	run  func(*Experiments) error
}{
	{"3", (*Experiments).Fig3}, {"8", (*Experiments).Fig8}, {"9", (*Experiments).Fig9},
	{"10", (*Experiments).Fig10}, {"table2", (*Experiments).Table2}, {"table3", (*Experiments).Table3},
	{"11", (*Experiments).Fig11}, {"12", (*Experiments).Fig12}, {"vf", (*Experiments).SecVF},
	{"recovery", (*Experiments).Recovery}, {"eadr", (*Experiments).EADRAblation},
	{"pubsize", (*Experiments).PUBSize}, {"arrangement", (*Experiments).Arrangement},
	{"schemes", (*Experiments).Schemes}, {"scenarios", (*Experiments).Scenarios},
}

// ExperimentNames lists the names ByName accepts: every experiment in
// report order, then "all".
func ExperimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, x := range experiments {
		names = append(names, x.name)
	}
	return append(names, "all")
}

// All runs every experiment in report order.
func (e *Experiments) All() error {
	for _, x := range experiments {
		if err := x.run(e); err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
	}
	return nil
}

// ByName dispatches one experiment by its CLI name.
func (e *Experiments) ByName(name string) error {
	if name == "all" {
		return e.All()
	}
	for _, x := range experiments {
		if x.name == name {
			return x.run(e)
		}
	}
	return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(ExperimentNames(), "|"))
}

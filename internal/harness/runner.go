// Package harness runs workloads against the secure memory controller
// and produces the measurements behind every figure and table of the
// paper's evaluation. It owns the CPU-side model: per-core workload
// streams (Table I: 4 cores), the shared LLC filter, x86 persistence
// semantics (clwb keeps lines resident and clean; sfence waits for
// outstanding persists to reach the ADR domain), and the plaintext model
// used to generate and later verify block contents.
package harness

import (
	"encoding/binary"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunConfig describes one simulation run.
type RunConfig struct {
	// Config is the machine configuration (scheme, sizes, latencies).
	Config config.Config
	// Workload is the benchmark name (see workload.Names).
	Workload string
	// WarmupTxs transactions run before measurement starts (the paper's
	// fast-forward: at least 5000 per core). Statistics are reset after
	// warm-up, and under Thoth the PUB is prefilled to its eviction
	// threshold with warm-up-generated entries (Section V-A).
	WarmupTxs int
	// MeasureTxs transactions are measured.
	MeasureTxs int
	// Verify re-reads every persisted block after the run and checks the
	// plaintext against the model (slow; tests only).
	Verify bool
	// SetupKeys overrides the benchmark population size (0 = the
	// paper-scale default).
	SetupKeys int
}

// Result is the outcome of one run.
type Result struct {
	Scheme   config.Scheme
	Workload string
	// Cycles is the execution time of the measured phase.
	Cycles int64
	// Stats is a snapshot of the controller statistics for the measured
	// phase.
	Stats stats.Stats
	// PCBMergeRate is the Table III statistic.
	PCBMergeRate float64
	// LLCHits/LLCMisses cover the measured phase.
	LLCHits, LLCMisses int64
	// Controller gives access to the post-run state (crash experiments).
	Controller *core.Controller
	// Runner allows continuing the run (crash/recovery experiments).
	Runner *Runner
}

// Runner drives per-core workload streams through the LLC into the
// controller. It implements workload.Sink.
type Runner struct {
	cfg config.Config
	ctl *core.Controller
	llc *llc.LLC

	now     int64
	pending int64 // completion cycle of the latest outstanding persist

	bs       int64
	model    model
	blockBuf []byte // reused by blockBytes; one borrow live at a time

	streams []workload.Workload
	txCount int64
}

// NewRunner builds a runner with one workload stream per configured core
// (each stream gets a disjoint heap slice and its own seed), mirroring
// the paper's 4-core setup where every core executes the benchmark.
func NewRunner(rc RunConfig) (*Runner, error) {
	ctl, err := core.New(rc.Config)
	if err != nil {
		return nil, err
	}
	cfg := rc.Config
	lay := ctl.Layout()
	r := &Runner{
		cfg:   cfg,
		ctl:   ctl,
		bs:    int64(cfg.BlockSize),
		model: newModel(lay.DataBase, lay.DataBytes, int64(cfg.BlockSize)),
	}
	r.llc = llc.New(cfg.LLCBytes, cfg.BlockSize, cfg.LLCWays, int64(cfg.LLCLatencyCycles), func(addr int64) {
		// Natural dirty eviction from the LLC: the line leaves the chip
		// and must take the secure persistent write path.
		r.persistOut(addr)
	})

	if rc.Workload == "" {
		// No benchmark streams: the caller drives the runner directly
		// through its workload.Sink methods.
		return r, nil
	}
	perCore := lay.DataBytes / int64(cfg.Cores)
	perCore -= perCore % int64(cfg.PageBytes)
	for i := 0; i < cfg.Cores; i++ {
		w, err := workload.New(rc.Workload, workload.Params{
			HeapBase:  lay.DataBase + int64(i)*perCore,
			HeapSize:  perCore,
			TxSize:    cfg.TxSize,
			Seed:      cfg.Seed + int64(i)*7919,
			SetupKeys: rc.SetupKeys,
		})
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, w)
	}
	return r, nil
}

// Controller returns the underlying controller.
func (r *Runner) Controller() *core.Controller { return r.ctl }

// Now returns the current cycle.
func (r *Runner) Now() int64 { return r.now }

// blockBytes materializes the current plaintext of a block from the
// version model: deterministic, distinct per (address, version). The
// returned slice is runner-owned scratch, overwritten by the next call;
// the single-threaded drive loop never holds two borrows at once.
func (r *Runner) blockBytes(addr int64) []byte {
	if r.blockBuf == nil {
		r.blockBuf = make([]byte, r.bs)
	}
	out := r.blockBuf
	x := uint64(addr)*0x9E3779B97F4A7C15 + r.model.version(addr)*0xBF58476D1CE4E5B9 + 1
	i := 0
	for ; i+8 <= len(out); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(out[i:], x)
	}
	if i < len(out) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; i+j < len(out); j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out
}

// persistOut routes one block leaving the chip (clwb or natural LLC
// eviction) to the controller's secure persistent write path.
func (r *Runner) persistOut(addr int64) {
	done := r.ctl.PersistBlock(r.now, addr, r.blockBytes(addr))
	r.model.markPersisted(addr)
	if done > r.pending {
		r.pending = done
	}
}

// blocksOf iterates the block-aligned addresses covering [addr,addr+size).
func (r *Runner) blocksOf(addr, size int64, fn func(block int64)) {
	if size <= 0 {
		return
	}
	for b := addr &^ (r.bs - 1); b < addr+size; b += r.bs {
		fn(b)
	}
}

// Load implements workload.Sink.
func (r *Runner) Load(addr, size int64) {
	r.blocksOf(addr, size, func(b int64) {
		if r.llc.Load(b) {
			r.now += r.llc.HitLatency
			return
		}
		if !r.model.persisted(b) {
			// Never-persisted block: a zero-fill allocation satisfied
			// from the (volatile) hierarchy; no NVM traffic.
			r.now += r.llc.HitLatency
			return
		}
		done, _ := r.ctl.ReadBlock(r.now, b)
		r.now = done
	})
}

// Store implements workload.Sink.
func (r *Runner) Store(addr, size int64) {
	r.blocksOf(addr, size, func(b int64) {
		r.model.bump(b)
		full := addr <= b && b+r.bs <= addr+size
		if r.llc.Store(b) {
			r.now += r.llc.HitLatency
			return
		}
		// Write-allocate fill, skipped for full-block (streaming) stores.
		if !full && r.model.persisted(b) {
			done, _ := r.ctl.ReadBlock(r.now, b)
			r.now = done
			return
		}
		r.now += r.llc.HitLatency
	})
}

// Persist implements workload.Sink (clwb of the range). Under eADR the
// cache hierarchy is already persistent, so clwb is a no-op and the
// data reaches NVM only on natural eviction or the crash/shutdown flush.
func (r *Runner) Persist(addr, size int64) {
	if r.cfg.EADR {
		return
	}
	r.blocksOf(addr, size, func(b int64) {
		if !r.llc.CLWB(b) {
			return // clean or absent: nothing leaves the chip
		}
		r.persistOut(b)
	})
}

// Fence implements workload.Sink (sfence): wait for every outstanding
// persist.
func (r *Runner) Fence() {
	if r.pending > r.now {
		r.now = r.pending
	}
}

// Setup runs every stream's population phase.
func (r *Runner) Setup() {
	for _, w := range r.streams {
		w.Setup(r)
	}
	r.Fence()
}

// RunTxs executes n transactions round-robin across the core streams.
func (r *Runner) RunTxs(n int) {
	for i := 0; i < n; i++ {
		r.streams[i%len(r.streams)].Tx(r)
		r.txCount++
	}
	r.Fence()
}

// Crash models a power failure at the current cycle. Under plain ADR the
// cache hierarchy is lost; under eADR residual power flushes every dirty
// line through the secure write path and the result is equivalent to a
// clean shutdown. The returned error reports an ADR-flush invariant
// violation (see core.Controller.Crash).
func (r *Runner) Crash() error {
	if r.cfg.EADR {
		r.llc.FlushDirty(func(addr int64) {
			done := r.ctl.PersistBlock(r.now, addr, r.blockBytes(addr))
			r.model.markPersisted(addr)
			if done > r.now {
				r.now = done
			}
		})
		now, err := r.ctl.Shutdown(r.now)
		r.now = now
		return err
	}
	return r.ctl.Crash(r.now)
}

// VerifyAll re-reads every persisted block, in ascending address order,
// and compares against the plaintext model. It returns the number of
// verified blocks.
func (r *Runner) VerifyAll() (int, error) {
	n := 0
	err := r.model.eachPersisted(func(addr int64) error {
		// The LLC may hold a dirtier version than NVM; only blocks whose
		// newest version was persisted are checked against the device.
		if r.llc.CLWB(addr) {
			done := r.ctl.PersistBlock(r.now, addr, r.blockBytes(addr))
			if done > r.now {
				r.now = done
			}
		}
		_, got := r.ctl.ReadBlock(r.now, addr)
		want := r.blockBytes(addr)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("harness: block %#x mismatch at byte %d", addr, i)
			}
		}
		n++
		return nil
	})
	return n, err
}

// Run executes one full experiment: setup, warm-up, PUB prefill (Thoth),
// statistics reset, measured phase.
func Run(rc RunConfig) (*Result, error) {
	if rc.MeasureTxs <= 0 {
		return nil, fmt.Errorf("harness: MeasureTxs must be positive")
	}
	r, err := NewRunner(rc)
	if err != nil {
		return nil, err
	}
	r.Setup()
	if rc.WarmupTxs > 0 {
		r.RunTxs(rc.WarmupTxs)
	}
	if rc.Config.Scheme.IsThoth() {
		if err := r.ctl.PrefillPUB(); err != nil {
			return nil, fmt.Errorf("harness: prefill: %w", err)
		}
	}
	r.ctl.ResetStats()
	h0, m0 := r.llc.Stats()
	start := r.now

	r.RunTxs(rc.MeasureTxs)

	r.ctl.SyncStats()
	st := *r.ctl.Stats()
	st.Cycles = r.now - start
	st.Transactions = int64(rc.MeasureTxs)
	h1, m1 := r.llc.Stats()
	st.LLCHits, st.LLCMisses = h1-h0, m1-m0

	res := &Result{
		Scheme:       rc.Config.Scheme,
		Workload:     rc.Workload,
		Cycles:       st.Cycles,
		Stats:        st,
		PCBMergeRate: r.ctl.PCBMergeRate(),
		LLCHits:      st.LLCHits,
		LLCMisses:    st.LLCMisses,
		Controller:   r.ctl,
		Runner:       r,
	}
	if rc.Verify {
		if _, err := r.VerifyAll(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

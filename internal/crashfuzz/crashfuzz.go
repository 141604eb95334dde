package crashfuzz

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	thoth "repro"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ViolationKind classifies a divergence from the crash-consistency
// contract.
type ViolationKind uint8

const (
	// VExecPanic: the controller panicked while executing the trace or
	// reading back recovered data.
	VExecPanic ViolationKind = iota
	// VExecError: an operation the model says must succeed returned an
	// error before the crash.
	VExecError
	// VCrashError: the ADR residual-power flush failed (PUB ring full at
	// crash — a sizing invariant violation).
	VCrashError
	// VRecoveryError: serial recovery of the crash image failed (root
	// mismatch or unreadable control state).
	VRecoveryError
	// VReopenError: the recovered image could not be reattached.
	VReopenError
	// VDataLoss: a block acknowledged as persisted before the crash read
	// back wrong (or failed verification) after recovery.
	VDataLoss
	// VDiverge: two executions that must agree did not — parallel
	// recovery against the serial reference (device bytes, report or
	// error sentinel), or one variant's recovered plaintext against the
	// first variant's.
	VDiverge
)

// String names the kind for reports.
func (k ViolationKind) String() string {
	switch k {
	case VExecPanic:
		return "exec-panic"
	case VExecError:
		return "exec-error"
	case VCrashError:
		return "crash-error"
	case VRecoveryError:
		return "recovery-error"
	case VReopenError:
		return "reopen-error"
	case VDataLoss:
		return "data-loss"
	case VDiverge:
		return "diverge"
	default:
		return "violation?"
	}
}

// Violation is one observed divergence, under the variant that showed
// it.
type Violation struct {
	Kind    ViolationKind
	Variant Variant
	Detail  string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Kind, v.Variant, v.Detail)
}

// Result is the outcome of one case.
type Result struct {
	Case       Case
	Violations []Violation
}

// Failed reports whether any violation was observed.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// String renders a report. For failures it includes the single line that
// reproduces the case byte-for-byte: crashfuzz.Replay(seed).
func (r *Result) String() string {
	c := r.Case
	head := fmt.Sprintf("crashfuzz: seed=%d mode=%s block=%dB pub=%d variants=%d ops=%d crash@%d",
		c.Seed, c.Mode, c.BlockSize, c.PUBBlocks, len(c.Variants), len(c.Trace), c.CrashIdx)
	if !r.Failed() {
		return head + ": ok"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: FAILED (%d violations)\n", head, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	fmt.Fprintf(&b, "  reproduce: crashfuzz.Replay(%d)", c.Seed)
	return b.String()
}

// Run derives the case for a seed and checks it.
func Run(seed int64) *Result { return Check(DeriveCase(seed)) }

// Replay is Run under the name printed in failure reports, so the line
// `crashfuzz.Replay(seed)` pasted from a report is a complete
// reproduction.
func Replay(seed int64) *Result { return Run(seed) }

// Check executes one concrete case: every variant runs the trace
// prefix, crashes, recovers (serially, and in parallel at each of its
// worker counts, which must agree with the serial reference), reopens
// and reads back every golden block; then every variant's recovered
// plaintext is cross-checked against the first variant's. A panic in
// the system under test becomes a violation, except one on a goroutine
// that RecoverPool starts, which ends the process.
func Check(c Case) *Result {
	res := &Result{Case: c}
	golden := goldenAfter(c)
	var ref map[int64][]byte
	var refV Variant
	for _, v := range c.Variants {
		blocks, viols := runVariant(c, v, golden)
		res.Violations = append(res.Violations, viols...)
		if blocks == nil {
			continue
		}
		if ref == nil {
			ref, refV = blocks, v
			continue
		}
		for _, addr := range sortedAddrs(golden) {
			if !bytes.Equal(ref[addr], blocks[addr]) {
				res.Violations = append(res.Violations, Violation{VDiverge, v,
					fmt.Sprintf("block %#x recovered differently under %s", addr, refV)})
			}
		}
	}
	return res
}

// runVariant executes the case under one variant. It returns the
// recovered plaintext of every golden block (nil if execution never got
// that far) and the violations observed. Errors — a read-back that fails
// MAC verification among them — and any panic on this goroutine are
// converted to violations; a fuzzer must never take the process down
// with it.
func runVariant(c Case, v Variant, golden map[int64][]byte) (blocks map[int64][]byte, viols []Violation) {
	defer func() {
		if p := recover(); p != nil {
			blocks = nil
			viols = append(viols, Violation{VExecPanic, v, fmt.Sprint(p)})
		}
	}()
	fail := func(k ViolationKind, detail string) (map[int64][]byte, []Violation) {
		return nil, append(viols, Violation{k, v, detail})
	}
	cfg := c.ConfigFor(v.Scheme)
	scfg, err := engine.ShardConfig(cfg, v.Shards)
	if err != nil {
		return fail(VExecError, "shard config: "+err.Error())
	}
	pool, err := thoth.NewPool(cfg, v.Shards)
	if err != nil {
		return fail(VExecError, "new: "+err.Error())
	}
	// Power the shards down on every exit path; after CrashShards this
	// is a no-op error.
	defer pool.Shutdown()
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = pool.Write(op.Addr, op.payload())
		case OpRead:
			_, err = pool.Read(op.Addr, op.Len)
		case OpCorrupt:
			corruptCtr(pool.Device(0), scfg, op.Addr)
		}
		if err != nil {
			detail := fmt.Sprintf("op %d (%s %#x+%d): %v", i, op.Kind, op.Addr, op.Len, err)
			if errors.Is(err, thoth.ErrOutOfRange) {
				detail += " (generator emitted an out-of-range address)"
			}
			return fail(VExecError, detail)
		}
	}
	img, err := pool.CrashShards(v.Crash)
	if err != nil {
		return fail(VCrashError, err.Error())
	}

	// Parallel recovery runs on clones of the crash image, taken before
	// the serial reference repairs img in place.
	clones := make([]*thoth.PoolImage, len(v.Workers))
	for i := range clones {
		clones[i] = cloneImage(img)
	}
	reps, serialErr := recoverShards(scfg, img)
	ref := make([][]byte, len(img.Devices))
	for i, d := range img.Devices {
		ref[i] = imageBytes(d)
	}
	for i, w := range v.Workers {
		for _, d := range diffParallel(cfg, ref, reps, serialErr, clones[i], w) {
			viols = append(viols, Violation{VDiverge, v, fmt.Sprintf("workers=%d: %s", w, d)})
		}
	}
	if serialErr != nil {
		return fail(VRecoveryError, serialErr.Error())
	}

	pool2, err := thoth.OpenPool(cfg, v.Shards, img)
	if err != nil {
		return fail(VReopenError, err.Error())
	}
	defer pool2.Shutdown()
	blocks = make(map[int64][]byte, len(golden))
	for _, addr := range sortedAddrs(golden) {
		want := golden[addr]
		got, err := pool2.Read(addr, len(want))
		switch {
		case err != nil:
			viols = append(viols, Violation{VDataLoss, v,
				fmt.Sprintf("block %#x unreadable after recovery: %v", addr, err)})
		case !bytes.Equal(got, want):
			viols = append(viols, Violation{VDataLoss, v,
				fmt.Sprintf("block %#x corrupted across crash (got %x... want %x...)",
					addr, got[:8], want[:8])})
		}
		blocks[addr] = got
	}
	return blocks, viols
}

// recoverShards repairs every crashed shard of img in place with the
// one-worker Recover, one shard after another, under the per-shard
// configuration. It returns one report per shard (nil for clean shards)
// and the per-shard errors joined, as RecoverPool does.
func recoverShards(scfg config.Config, img *thoth.PoolImage) ([]*thoth.RecoveryReport, error) {
	reps := make([]*thoth.RecoveryReport, img.Shards)
	var errs []error
	for i, crashed := range img.Crashed {
		if !crashed {
			continue
		}
		rep, err := thoth.Recover(scfg, img.Devices[i])
		reps[i] = rep
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return reps, errors.Join(errs...)
}

// diffParallel recovers clone — an untouched copy of the crash image —
// with RecoverPool at the given worker count and lists every way the
// outcome differs from the serial reference (ref holds each shard's
// serially recovered device bytes): the error sentinels, each shard's
// device bytes, and each crashed shard's report counters.
// RecoverPool runs each shard's recovery on its own goroutine, so a
// panic there ends the process rather than becoming a violation.
func diffParallel(cfg config.Config, ref [][]byte, reps []*thoth.RecoveryReport, serialErr error, clone *thoth.PoolImage, workers int) []string {
	prep, perr := thoth.RecoverPool(cfg, clone.Shards, clone, thoth.RecoverOpts{Workers: workers})
	if !sameRecoveryOutcome(serialErr, perr) {
		return []string{fmt.Sprintf("serial err=%v, parallel err=%v", serialErr, perr)}
	}
	if prep == nil {
		return []string{fmt.Sprintf("no parallel report (err=%v)", perr)}
	}
	var diffs []string
	for i := range ref {
		if !bytes.Equal(ref[i], imageBytes(clone.Devices[i])) {
			diffs = append(diffs, fmt.Sprintf("shard %d: post-recovery device image differs from serial", i))
		}
		s, p := reps[i], prep.Shards[i]
		switch {
		case (s == nil) != (p == nil):
			diffs = append(diffs, fmt.Sprintf("shard %d: serial report nil=%v, parallel report nil=%v",
				i, s == nil, p == nil))
		case s != nil && !s.CountsEqual(p):
			diffs = append(diffs, fmt.Sprintf("shard %d: report differs: serial{%s} parallel{%s}", i, s, p))
		}
	}
	return diffs
}

// sameRecoveryOutcome reports whether two recovery errors agree: both
// nil, or both matching the same sentinels under errors.Is.
func sameRecoveryOutcome(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, sentinel := range []error{thoth.ErrRootMismatch, thoth.ErrNoControlState} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// cloneImage deep-copies a pool image's devices and crash flags.
func cloneImage(img *thoth.PoolImage) *thoth.PoolImage {
	c := &thoth.PoolImage{
		Shards:  img.Shards,
		Crashed: append([]bool(nil), img.Crashed...),
		Devices: make([]*thoth.Device, len(img.Devices)),
	}
	for i, d := range img.Devices {
		c.Devices[i] = d.Clone()
	}
	return c
}

// imageBytes serializes a device image for byte-exact comparison; Save
// into memory cannot fail.
func imageBytes(d *thoth.Device) []byte {
	var buf bytes.Buffer
	_ = d.Save(&buf)
	return buf.Bytes()
}

// corruptCtr flips one bit in the counter region of a device, located
// through the per-shard configuration scfg (used only by hand-built
// failure cases; see OpCorrupt).
func corruptCtr(dev *thoth.Device, scfg config.Config, off int64) {
	regions, err := thoth.RegionsOf(scfg)
	if err != nil {
		panic(err)
	}
	bs := int64(scfg.BlockSize)
	addr := regions.CtrBase + off%regions.CtrBytes/bs*bs
	blk := dev.Peek(addr)
	blk[int(off)%len(blk)] ^= 1
	dev.WriteBlock(addr, blk)
}

// adversarialCrashIdx profiles the full trace once (no crash) under the
// case's first variant's scheme, on one controller, with an event tracer attached. Boundaries where
// ADR-pressure events fired — packed PCB blocks written into the PUB,
// PUB evictions, counter overflows, forced WPQ drains — become crash
// candidates, both immediately after the triggering op and immediately
// before it (the window in which the metadata consequences of the op
// are mid-flight). One candidate is then drawn with the case's own
// generator, keeping the whole derivation a pure function of the seed.
func adversarialCrashIdx(r *rng, c Case) int {
	cand := profileCandidates(c)
	if len(cand) == 0 {
		// No pressure events (short trace, big PUB): crash at the end,
		// where the ADR drain has the most to flush.
		return len(c.Trace)
	}
	return cand[r.Intn(len(cand))]
}

// profileCandidates returns the candidate crash indices, deduplicated
// and ordered. A panicking or failing profile run yields no candidates;
// the real run will surface the bug as a violation.
func profileCandidates(c Case) (cand []int) {
	defer func() { _ = recover() }()
	cfg := c.ConfigFor(c.Variants[0].Scheme)
	// An inline tracer flags the ops during which ADR-pressure events
	// fired; the events arrive synchronously inside Write/Read.
	var pressure bool
	cfg.Tracer = obs.Func(func(e obs.Event) {
		switch e.Kind {
		case obs.KindPCBFlush, obs.KindPUBEvict, obs.KindCtrOverflow:
			pressure = true
		case obs.KindWPQDrain:
			// Age-outs and end-of-run flushes are routine; only forced
			// drains mark a pressure window.
			if e.Detail == obs.DrainWatermark || e.Detail == obs.DrainStall {
				pressure = true
			}
		}
	})
	sys, err := thoth.New(cfg)
	if err != nil {
		return nil
	}
	seen := make(map[int]bool)
	add := func(i int) {
		if i >= 0 && i <= len(c.Trace) && !seen[i] {
			seen[i] = true
			cand = append(cand, i)
		}
	}
	for i, op := range c.Trace {
		pressure = false
		switch op.Kind {
		case OpWrite:
			if sys.Write(op.Addr, op.payload()) != nil {
				return cand
			}
		case OpRead:
			if _, err := sys.Read(op.Addr, op.Len); err != nil {
				return cand
			}
		}
		if pressure {
			add(i)     // just before the triggering op
			add(i + 1) // just after it
		}
	}
	sort.Ints(cand)
	return cand
}

// sortedAddrs returns the golden block addresses in ascending order so
// reports and replays are stable.
func sortedAddrs(m map[int64][]byte) []int64 {
	out := make([]int64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SweepResult aggregates a seed-range sweep.
type SweepResult struct {
	Cases    int
	Failures []*Result // failed cases only, ascending by seed
}

// Failed reports whether any case in the sweep failed.
func (s *SweepResult) Failed() bool { return len(s.Failures) > 0 }

// String renders a one-line summary, plus every failure report.
func (s *SweepResult) String() string {
	if !s.Failed() {
		return fmt.Sprintf("crashfuzz: %d cases, 0 violations", s.Cases)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "crashfuzz: %d cases, %d FAILED\n", s.Cases, len(s.Failures))
	for _, r := range s.Failures {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// Sweep runs seeds start..start+n-1 across the given number of workers
// (1 if workers < 1), collecting failures in ascending seed order.
// Per-seed results are independent, so parallelism does not affect
// determinism.
func Sweep(start int64, n, workers int) *SweepResult {
	if workers < 1 {
		workers = 1
	}
	results := make([]*Result, n)
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = Run(start + int64(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()

	sw := &SweepResult{Cases: n}
	for _, r := range results {
		if r.Failed() {
			sw.Failures = append(sw.Failures, r)
		}
	}
	return sw
}

package crashfuzz

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	thoth "repro"
	"repro/internal/config"
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
	// VRecoveryError: recovery of the crash image failed (root mismatch
	// or unreadable control state).
	VRecoveryError
	// VReopenError: the recovered image could not be reattached.
	VReopenError
	// VDataLoss: a block acknowledged as persisted before the crash read
	// back wrong (or failed verification) after recovery.
	VDataLoss
	// VDifferential: two schemes fed the identical trace disagree about
	// recovered contents.
	VDifferential
	// VParallelDiverge: parallel recovery of a crash image disagrees with
	// the serial reference — different device bytes, a different report,
	// or a different error sentinel.
	VParallelDiverge
	// VPoolDiverge: a sharded pool fed the identical trace, crashed on
	// an arbitrary shard subset and recovered shard-by-shard, disagrees
	// with the single-controller reference about recovered plaintext.
	VPoolDiverge
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
	case VDifferential:
		return "differential"
	case VParallelDiverge:
		return "parallel-diverge"
	case VPoolDiverge:
		return "pool-diverge"
	default:
		return "violation?"
	}
}

// Violation is one observed divergence.
type Violation struct {
	Kind   ViolationKind
	Scheme config.Scheme
	Detail string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Kind, v.Scheme, v.Detail)
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
	head := fmt.Sprintf("crashfuzz: seed=%d mode=%s block=%dB pub=%d schemes=%v ops=%d crash@%d",
		c.Seed, c.Mode, c.BlockSize, c.PUBBlocks, c.Schemes, len(c.Trace), c.CrashIdx)
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

// Run derives the case for a seed and executes it.
func Run(seed int64) *Result { return RunCase(DeriveCase(seed)) }

// Replay is Run under the name printed in failure reports, so the line
// `crashfuzz.Replay(seed)` pasted from a report is a complete
// reproduction.
func Replay(seed int64) *Result { return Run(seed) }

// RunWith derives the case for a seed and executes it with the scheme
// set replaced. The override happens after derivation, so the trace,
// machine geometry and crash index are exactly the seed's own
// (DeriveCase's RNG draws are untouched) — the identical crash scenario
// faces whatever scheme set the caller wants to cross-check, e.g. the
// triad-relaxed sweep against the seed's usual oracle schemes.
func RunWith(seed int64, schemes []config.Scheme) *Result {
	c := DeriveCase(seed)
	c.Schemes = schemes
	return RunCase(c)
}

// RunCase executes one concrete case: for every scheme, run the trace
// prefix, crash, recover, reopen, and compare every golden block; then
// cross-check the schemes against each other.
func RunCase(c Case) *Result {
	res := &Result{Case: c}
	golden := goldenAfter(c)

	type image struct {
		scheme config.Scheme
		blocks map[int64][]byte
	}
	var images []image
	for _, sch := range c.Schemes {
		blocks, viols := runScheme(c, sch, golden)
		res.Violations = append(res.Violations, viols...)
		if blocks != nil {
			images = append(images, image{sch, blocks})
		}
	}

	// Differential cross-check: identical traces must recover to
	// identical plaintext regardless of scheme.
	for i := 1; i < len(images); i++ {
		a, b := images[0], images[i]
		for _, addr := range sortedAddrs(golden) {
			if !bytes.Equal(a.blocks[addr], b.blocks[addr]) {
				res.Violations = append(res.Violations, Violation{
					Kind:   VDifferential,
					Scheme: b.scheme,
					Detail: fmt.Sprintf("block %#x recovered differently under %s and %s", addr, a.scheme, b.scheme),
				})
			}
		}
	}
	return res
}

// runScheme executes the case under one scheme. It returns the recovered
// plaintext of every golden block (nil if execution never got that far)
// and the violations observed. All panics — controller invariants, MAC
// verification failures on read-back — are converted to violations; a
// fuzzer must never take the process down with it.
func runScheme(c Case, sch config.Scheme, golden map[int64][]byte) (blocks map[int64][]byte, viols []Violation) {
	defer func() {
		if p := recover(); p != nil {
			blocks = nil
			viols = append(viols, Violation{VExecPanic, sch, fmt.Sprint(p)})
		}
	}()
	cfg := c.ConfigFor(sch)
	sys, err := thoth.New(cfg)
	if err != nil {
		return nil, append(viols, Violation{VExecError, sch, "new: " + err.Error()})
	}
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = sys.Write(op.Addr, op.payload())
		case OpRead:
			_, err = sys.Read(op.Addr, op.Len)
		case OpCorrupt:
			corruptCtr(sys, cfg, op.Addr)
		}
		if err != nil {
			detail := fmt.Sprintf("op %d (%s %#x+%d): %v", i, op.Kind, op.Addr, op.Len, err)
			if errors.Is(err, thoth.ErrOutOfRange) {
				detail += " (generator emitted an out-of-range address)"
			}
			return nil, append(viols, Violation{VExecError, sch, detail})
		}
	}
	img, err := sys.Crash()
	if err != nil {
		return nil, append(viols, Violation{VCrashError, sch, err.Error()})
	}
	if _, err := thoth.Recover(cfg, img); err != nil {
		return nil, append(viols, Violation{VRecoveryError, sch, err.Error()})
	}
	sys2, err := thoth.Open(cfg, img)
	if err != nil {
		return nil, append(viols, Violation{VReopenError, sch, err.Error()})
	}
	blocks = make(map[int64][]byte, len(golden))
	for _, addr := range sortedAddrs(golden) {
		want := golden[addr]
		got, err := readBlock(sys2, addr, len(want))
		switch {
		case err != nil:
			viols = append(viols, Violation{VDataLoss, sch,
				fmt.Sprintf("block %#x unreadable after recovery: %v", addr, err)})
		case !bytes.Equal(got, want):
			viols = append(viols, Violation{VDataLoss, sch,
				fmt.Sprintf("block %#x corrupted across crash (got %x... want %x...)",
					addr, got[:8], want[:8])})
		}
		blocks[addr] = got
	}
	return blocks, viols
}

// readBlock reads back one recovered block, converting the controller's
// MAC-verification panic into an error the caller reports as data loss.
func readBlock(sys *thoth.System, addr int64, n int) (b []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			b, err = nil, fmt.Errorf("read panicked: %v", p)
		}
	}()
	return sys.Read(addr, n)
}

// corruptCtr flips one bit in the counter region of the live device
// (used only by hand-built failure cases; see OpCorrupt).
func corruptCtr(sys *thoth.System, cfg config.Config, off int64) {
	regions, err := thoth.RegionsOf(cfg)
	if err != nil {
		panic(err)
	}
	bs := int64(cfg.BlockSize)
	addr := regions.CtrBase + off%regions.CtrBytes/bs*bs
	blk := sys.Device().Peek(addr)
	blk[int(off)%len(blk)] ^= 1
	sys.Device().WriteBlock(addr, blk)
}

// adversarialCrashIdx profiles the full trace once (no crash) under the
// case's first scheme with an event tracer attached. Boundaries where
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
	cfg := c.ConfigFor(c.Schemes[0])
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
// (1 if workers < 1). Per-seed results are independent, so parallelism
// does not affect determinism.
func Sweep(start int64, n, workers int) *SweepResult {
	return SweepWith(start, n, workers, Run)
}

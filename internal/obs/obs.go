// Package obs is the controller-wide observability layer: a structured
// event stream threaded through the secure memory controller (core, the
// WPQ, the PCB/PUB machinery, the metadata caches, and recovery).
//
// The aggregate counters in internal/stats answer "how much"; this
// package answers "when". Every architecturally interesting transition —
// a packed PCB block flushing into the PUB, a PUB eviction with its
// Figure-3 outcome, a minor-counter overflow, a WPQ drain, a metadata
// cache eviction, a lazy tree write-back, a recovery-time merge — is
// emitted as one flat Event carrying the modeled cycle timestamp, the
// NVM address, and the scheme context.
//
// Tracing is opt-in via config.Config.Tracer. The disabled path is a
// nil-check before the Event is even constructed, so it costs zero
// allocations (proven by BenchmarkTracerDisabled in internal/core).
// Event itself is a flat value struct — no pointers, no slices — so
// enabled emission does not allocate either; only sinks that buffer or
// encode pay for what they keep.
package obs

import (
	"fmt"
	"sync"
)

// Kind identifies the event type.
type Kind uint8

const (
	// KindNone is the zero Kind; it is never emitted.
	KindNone Kind = iota
	// KindPCBFlush: a packed block of partial updates left the PCB and
	// was pushed into the PUB ring. Addr is the PUB ring address the
	// block landed at; Aux is the number of entries packed into it.
	// Detail is "" for the normal posting path, "adr-flush" for the
	// residual-power flush at crash/shutdown, "prefill" for the
	// methodology-mandated warm-up replication (Section V-A).
	KindPCBFlush
	// KindPUBEvict: one half (counter or MAC) of a partial update was
	// processed by the PUB eviction engine. Addr is the home address of
	// the metadata block; Aux is the PUB ring address of the packed
	// block the entry was evicted from (linking the eviction back to the
	// KindPCBFlush that wrote it); Part is "ctr" or "mac"; Detail is the
	// Figure-3 outcome ("written-back", "already-evicted", "clean-copy",
	// "stale-copy").
	KindPUBEvict
	// KindCtrOverflow: a minor counter overflowed and the page was
	// re-encrypted under a bumped major (Section IV-A). Addr is the page
	// base address; Aux is the number of blocks per page.
	KindCtrOverflow
	// KindWPQDrain: a pending WPQ entry left the coalescing window and
	// was handed to a memory bank. Addr is the block address; Aux is the
	// entry's residency — the modeled cycles it spent pending in the
	// queue before issue; Detail is the drain reason (DrainWatermark,
	// DrainAge, DrainStall, DrainFlush).
	KindWPQDrain
	// KindCacheEvict: a metadata cache displaced a valid line. Addr is
	// the victim's address; Part names the cache ("ctr", "mac", "mt");
	// Aux is 1 when the victim was dirty (forcing a write-back), else 0.
	KindCacheEvict
	// KindTreeUpdate: a Merkle-tree node was lazily written back to NVM.
	// Addr is the node's address; Aux is the tree level.
	KindTreeUpdate
	// KindRecoveryMerge: recovery processed one PUB entry
	// (verify-then-merge, Section IV-D). Addr is the data block the
	// entry covers; Cycle is the modeled recovery cycle; Detail reports
	// what was merged ("ctr+mac", "ctr", "mac", "noop") or why the entry
	// was skipped ("stale", "out-of-range").
	KindRecoveryMerge
	numKinds
)

// String returns the stable wire name of the kind (the JSONL "kind").
func (k Kind) String() string {
	switch k {
	case KindPCBFlush:
		return "pcb-flush"
	case KindPUBEvict:
		return "pub-evict"
	case KindCtrOverflow:
		return "ctr-overflow"
	case KindWPQDrain:
		return "wpq-drain"
	case KindCacheEvict:
		return "cache-evict"
	case KindTreeUpdate:
		return "tree-update"
	case KindRecoveryMerge:
		return "recovery-merge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindByName inverts Kind.String for the schema validator. The second
// return is false for unknown names.
func KindByName(name string) (Kind, bool) {
	for k := Kind(1); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return KindNone, false
}

// Kinds returns every declared event kind in declaration order
// (KindNone excluded). Consumers that key state by Kind — the per-kind
// counts cmd/tracemetrics prints, exhaustive round-trip tests — iterate
// this instead of hard-coding the enum size.
func Kinds() []Kind {
	ks := make([]Kind, 0, int(numKinds)-1)
	for k := Kind(1); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// ValidKind reports whether k is a declared event kind. KindNone and
// values at or beyond the end of the enum are invalid; validators use
// this to reject events whose Kind no Kind constant declares.
func ValidKind(k Kind) bool { return k > KindNone && k < numKinds }

// WPQ drain reasons (Event.Detail for KindWPQDrain).
const (
	// DrainWatermark: occupancy crossed the drain fraction.
	DrainWatermark = "watermark"
	// DrainAge: the entry exceeded its coalescing age limit.
	DrainAge = "age"
	// DrainStall: a full queue forced the front-end to issue entries.
	DrainStall = "stall"
	// DrainFlush: end-of-run or ADR crash/shutdown flush.
	DrainFlush = "flush"
)

// Event is one controller event. It is a flat value struct — emitting
// one costs no heap allocation — and every string field is a static
// label, never formatted per event.
type Event struct {
	// Kind identifies what happened.
	Kind Kind
	// Cycle is the modeled cycle timestamp the event is accounted at.
	Cycle int64
	// Addr is the NVM address the event concerns (see each Kind).
	Addr int64
	// Aux is a kind-specific secondary value (entry count, PUB ring
	// address, tree level, dirty flag); 0 when unused.
	Aux int64
	// Scheme labels the persistence scheme of the emitting controller
	// (config.Scheme.String()).
	Scheme string
	// Part names the sub-component or half the event concerns ("ctr",
	// "mac", "mt"); "" when the kind has only one subject.
	Part string
	// Detail qualifies the event (eviction outcome, drain reason, merge
	// result); "" when the kind needs no qualifier.
	Detail string
}

// Tracer receives controller events. Implementations used from
// cmd/experiments must be safe for concurrent Emit calls (parallel runs
// share one tracer); the in-process tracers in this package that buffer
// or write (Ring, JSONL) both are.
type Tracer interface {
	Emit(Event)
}

// Nop is the explicit no-op tracer. A nil config.Config.Tracer is the
// preferred disabled form (the emit sites skip event construction
// entirely); Nop exists for call sites that want a non-nil default.
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(Event) {}

// Func adapts a function to the Tracer interface (handy for tests and
// for crashfuzz's crash-point profiler).
type Func func(Event)

// Emit calls the function.
func (f Func) Emit(e Event) { f(e) }

// Multi fans every event out to each tracer in order.
func Multi(ts ...Tracer) Tracer { return multi(ts) }

type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Serialized wraps t so that Emit calls from concurrent goroutines run
// one at a time, letting plain (non-concurrency-safe) tracers observe
// concurrent producers: a sharded pool's callers.
func Serialized(t Tracer) Tracer { return &serialized{t: t} }

type serialized struct {
	mu sync.Mutex
	t  Tracer
}

func (s *serialized) Emit(e Event) {
	s.mu.Lock()
	s.t.Emit(e)
	s.mu.Unlock()
}

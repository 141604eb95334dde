// Package workload implements the persistent-memory benchmarks of the
// evaluation (Section V-A): four WHISPER-style database workloads —
// btree, ctree (crit-bit tree), hashmap, rbtree — and the paper's
// in-house Random Array Swap, all as real data-structure implementations
// over a simulated persistent heap.
//
// Each workload emits its memory behaviour through the Sink interface:
// Load/Store at byte granularity plus the x86 persistence primitives
// (Persist = clwb of a range, Fence = sfence). Transactions follow the
// PMDK-style undo-logging discipline WHISPER applications use: old data
// is appended to a circular undo log and persisted before in-place
// updates, which are then persisted and committed. The transaction size
// (bytes of payload written per transaction) is configurable, matching
// the paper's 128B/512B/1024B/2048B sweep.
//
// All randomness is seeded: two runs with the same seed generate exactly
// the same operation stream, so scheme comparisons see identical traces.
package workload

import (
	"fmt"
	"sort"
)

// Sink receives the memory operations of a workload. Addresses are
// absolute byte addresses in the data region; sizes are in bytes.
type Sink interface {
	// Load reads [addr, addr+size).
	Load(addr, size int64)
	// Store writes [addr, addr+size).
	Store(addr, size int64)
	// Persist issues clwb for every cache block overlapping the range.
	Persist(addr, size int64)
	// Fence orders persists (sfence): it completes when every prior
	// Persist has reached the persistence domain.
	Fence()
}

// Workload is one benchmark instance. Implementations are stateful and
// single-use: Setup once, then Tx repeatedly.
type Workload interface {
	// Name returns the benchmark name used in experiment tables.
	Name() string
	// Setup populates the data structure (the fast-forward phase; runs
	// under the simulator but is excluded from measurement by the
	// harness).
	Setup(s Sink)
	// Tx executes one persistent transaction.
	Tx(s Sink)
	// Footprint returns the bytes of heap allocated so far.
	Footprint() int64
}

// Names lists the paper's benchmarks in report order (the five used by
// the evaluation figures).
func Names() []string { return []string{"btree", "ctree", "hashmap", "rbtree", "swap"} }

// Params configures a benchmark instance.
type Params struct {
	// HeapBase is the first usable data address; HeapSize bounds
	// allocation.
	HeapBase, HeapSize int64
	// TxSize is the transaction payload in bytes.
	TxSize int
	// Seed drives all randomness.
	Seed int64
	// SetupKeys overrides the population size of the database
	// benchmarks (0 = default 16384). Smaller values speed up tests;
	// the full default is required for paper-scale metadata-cache
	// pressure.
	SetupKeys int
}

// New constructs a benchmark by name.
func New(name string, p Params) (Workload, error) {
	if p.TxSize <= 0 {
		return nil, fmt.Errorf("workload: transaction size %d must be positive", p.TxSize)
	}
	if p.HeapSize < 1<<20 {
		return nil, fmt.Errorf("workload: heap of %d bytes is too small", p.HeapSize)
	}
	if p.SetupKeys < 0 {
		return nil, fmt.Errorf("workload: negative setup keys")
	}
	if p.SetupKeys == 0 {
		p.SetupKeys = defaultSetupKeys
	}
	h := newHeap(p.HeapBase, p.HeapSize)
	r := newRNG(p.Seed)
	switch name {
	case "btree":
		return newBTree(h, r, p), nil
	case "ctree":
		return newCTree(h, r, p), nil
	case "hashmap":
		return newHashmap(h, r, p), nil
	case "rbtree":
		return newRBTree(h, r, p), nil
	case "swap":
		return newSwap(h, r, p.TxSize), nil
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
}

// heap is a bump allocator over the data region.
type heap struct {
	base, size, next int64
}

func newHeap(base, size int64) *heap { return &heap{base: base, size: size, next: base} }

// alloc returns a 64B-aligned region of n bytes.
func (h *heap) alloc(n int64) int64 {
	n = (n + 63) &^ 63
	if h.next+n > h.base+h.size {
		panic(fmt.Sprintf("workload: heap exhausted (%d of %d bytes used)", h.next-h.base, h.size))
	}
	a := h.next
	h.next += n
	return a
}

func (h *heap) footprint() int64 { return h.next - h.base }

// rng is a splitmix64 generator: tiny, fast, deterministic.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*2685821657736338717 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("workload: intn of non-positive bound")
	}
	return int(r.next() % uint64(n))
}

// undoLog is a circular PMDK-style undo log. Transactions append the old
// contents of every range they will modify, persist and fence the log,
// perform the in-place updates, persist them, and finally persist a
// commit record that logically truncates the log.
type undoLog struct {
	base, size, head int64
	commitRec        int64
}

const logHeaderBytes = 32 // per-entry header: tx id, address, length, checksum

func newUndoLog(h *heap, size int64) *undoLog {
	return &undoLog{base: h.alloc(size), size: size, commitRec: h.alloc(64)}
}

// logOld appends one old-data record covering n bytes and returns the
// record address. The caller fences once after logging all records.
func (l *undoLog) logOld(s Sink, n int64) {
	rec := logHeaderBytes + n
	if l.head+rec > l.size {
		l.head = 0 // wrap; old epochs are truncated by commit records
	}
	addr := l.base + l.head
	s.Store(addr, rec)
	s.Persist(addr, rec)
	l.head += (rec + 63) &^ 63
}

// commit persists the commit record, making the transaction durable and
// the log entries dead.
func (l *undoLog) commit(s Sink) {
	s.Store(l.commitRec, 8)
	s.Persist(l.commitRec, 8)
	s.Fence()
}

// writePayload stores and persists n bytes at addr (a helper for the
// common "write value, persist value" step).
func writePayload(s Sink, addr, n int64) {
	s.Store(addr, n)
	s.Persist(addr, n)
}

// keyPicker draws transaction keys with the skew persistent database
// workloads exhibit: a hot set absorbs most operations (updates to
// existing records) while a long uniform tail keeps inserting new ones.
// Setup populates the whole hot set plus a sample of the tail, so the
// measured phase mixes updates (temporal locality — the source of PCB
// merges and stale PUB entries) with inserts (footprint growth — the
// source of metadata-cache pressure).
type keyPicker struct {
	r        *rng
	keySpace int
	hotKeys  int
}

const (
	defaultKeySpace  = 1 << 17
	defaultHotKeys   = 4096
	defaultSetupKeys = 16384
	// hotPercent of transactions target the hot set.
	hotPercent = 80
)

func newKeyPicker(r *rng, setupKeys int) keyPicker {
	hot := defaultHotKeys
	if hot > setupKeys/2 && setupKeys > 1 {
		hot = setupKeys / 2
	}
	return keyPicker{r: r, keySpace: defaultKeySpace, hotKeys: hot}
}

// pick draws one transaction key.
func (k keyPicker) pick() uint64 {
	if k.r.intn(100) < hotPercent {
		return uint64(k.r.intn(k.hotKeys))
	}
	return uint64(k.r.intn(k.keySpace))
}

// setupKey returns the i-th population key: the full hot set first, then
// random tail keys.
func (k keyPicker) setupKey(i int) uint64 {
	if i < k.hotKeys {
		return uint64(i)
	}
	return uint64(k.r.intn(k.keySpace))
}

// CountingSink tallies operations; used by workload tests and the trace
// dumper.
type CountingSink struct {
	Loads, Stores, Persists, Fences int64
	LoadBytes, StoreBytes           int64
	// Touched records distinct 64B-aligned store targets.
	touched map[int64]bool
}

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{touched: make(map[int64]bool)}
}

// Load implements Sink.
func (c *CountingSink) Load(addr, size int64) {
	c.Loads++
	c.LoadBytes += size
}

// Store implements Sink.
func (c *CountingSink) Store(addr, size int64) {
	c.Stores++
	c.StoreBytes += size
	for a := addr &^ 63; a < addr+size; a += 64 {
		c.touched[a] = true
	}
}

// Persist implements Sink.
func (c *CountingSink) Persist(addr, size int64) { c.Persists++ }

// Fence implements Sink.
func (c *CountingSink) Fence() { c.Fences++ }

// TouchedBlocks returns the distinct 64B store targets, sorted.
func (c *CountingSink) TouchedBlocks() []int64 {
	out := make([]int64, 0, len(c.touched))
	for a := range c.touched {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

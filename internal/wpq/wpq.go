// Package wpq models the write-pending queue: the small ADR-backed
// buffer in the memory controller that forms the persistence domain
// boundary (Section II-B). A store is durable the moment it enters the
// WPQ; residual power guarantees the queue drains to media on a crash.
//
// Functional writes are applied to the NVM device eagerly at insertion —
// once inside the ADR domain the contents are guaranteed durable, and
// demand reads architecturally snoop the WPQ, so "device holds the value
// as of WPQ entry" is the correct functional model. What the WPQ tracks
// is *timing*: slot occupancy, coalescing of writes to the same block
// while they wait in the queue, watermark-triggered draining onto the
// NVM banks, and the front-end stalls caused by a full queue — the
// back-pressure mechanism behind the paper's speedup results.
//
// Draining follows Section V-A's rationale ("start draining when it is
// 50% full so that secure metadata from the same cache block that arrive
// in a short time period can be coalesced"): the queue keeps up to
// drainAt entries as a coalescing window and hands the overflow, oldest
// first, to the memory banks. Entries also age out — hardware WPQs are
// shallow ADR-protected buffers that drain within microseconds, so an
// entry is coalescible only for a bounded window after it first arrived
// (the paper's "short time period"). Entries handed to a bank stop being
// coalescible; their slots free when the bank retires the write.
//
// Insertion order is a contract, not an accident: every persist, batched
// (core.PersistBatch) or not, enters this queue in submission order — so
// every block of a metadata group, and the PCB/PUB traffic it triggers,
// enters the ADR domain in exactly that order. The queue itself never
// reorders coalescible entries relative to their first arrival.
package wpq

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result describes the outcome of one Insert.
type Result struct {
	// When is the cycle at which the write entered the ADR domain (the
	// persist completion time the front-end observes).
	When int64
	// Coalesced is true when the write merged into a pending entry for
	// the same block and consumed no new slot.
	Coalesced bool
	// Stall is the number of cycles the front-end was blocked waiting
	// for a free slot.
	Stall int64
}

// AgeLimitCycles bounds how long an entry may sit in the queue before
// being issued to memory regardless of occupancy (~5us at 4GHz). Each
// entry's effective limit is jittered by its address (up to +50%) so
// that entries inserted together do not age out as one burst — real
// controllers drain opportunistically, not on a global deadline.
const AgeLimitCycles = 20000

// ageJitterMask bounds the per-address jitter added to AgeLimitCycles.
const ageJitterMask = 16383

// ageLimitFor returns the jittered age limit for a block address.
func ageLimitFor(addr int64) int64 {
	h := uint64(addr) * 0x9E3779B97F4A7C15
	return AgeLimitCycles + int64(h>>40&ageJitterMask)
}

// maxAgeIssuesPerCall caps how many aged entries a single Insert may
// issue, spreading drain work across calls instead of bursting.
const maxAgeIssuesPerCall = 2

// WPQ is the write-pending queue timing model.
type WPQ struct {
	mem      *sim.Memory
	capacity int
	drainAt  int
	writeLat int64

	// The coalescing window is a FIFO ring of capacity slots: count
	// pending (coalescible) entries from slot head on, wrapping. Slot i
	// holds a block address in addrs[i] and its first-arrival cycle in
	// ats[i]; the addresses have their own array so the membership scan
	// reads them densely. Occupancy never exceeds capacity, so the ring
	// never overflows.
	addrs    []int64
	ats      []int64
	head     int
	count    int
	inFlight int // handed to a bank, not yet retired
	// Completion times of retired in-flight writes, consumed in the
	// order the banks retired them: a ring of capacity slots holding
	// nFrees entries from slot freeHead on. They never outnumber
	// inFlight, which never exceeds capacity.
	frees    []int64
	freeHead int
	nFrees   int
	// onRetire is the completion callback handed to the memory banks,
	// built once so issueOldest does not allocate a closure per write.
	onRetire func(at int64)

	// OnIssue, if set, observes every pending entry leaving the
	// coalescing window and may suppress the actual memory write by
	// returning true (the slot frees immediately). The PCB-after-WPQ
	// arrangement uses this to divert lightly-updated metadata blocks
	// into the PCB instead of writing them in full (Section IV-C).
	OnIssue func(addr int64) (suppress bool)

	// Tracer, when non-nil, observes every pending entry leaving the
	// coalescing window as a KindWPQDrain event whose Detail carries
	// the drain reason. Scheme is the static label stamped on emitted
	// events. Both are set by core.attach.
	Tracer obs.Tracer
	Scheme string

	// st receives the queue's counts: coalesced inserts, front-end
	// stall cycles and why each entry left the coalescing window.
	st *stats.Stats
}

// New builds a WPQ of the given capacity that keeps at most drainAt
// entries as its coalescing window, issuing block writes of writeLat
// cycles on mem and counting into st.
func New(mem *sim.Memory, capacity, drainAt int, writeLat int64, st *stats.Stats) *WPQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("wpq: capacity %d must be positive", capacity))
	}
	if drainAt <= 0 || drainAt > capacity {
		panic(fmt.Sprintf("wpq: drain watermark %d not in [1,%d]", drainAt, capacity))
	}
	if writeLat <= 0 {
		panic("wpq: write latency must be positive")
	}
	w := &WPQ{
		mem:      mem,
		capacity: capacity,
		drainAt:  drainAt,
		writeLat: writeLat,
		st:       st,
		addrs:    make([]int64, capacity),
		ats:      make([]int64, capacity),
		frees:    make([]int64, capacity),
	}
	w.onRetire = func(at int64) {
		tail := w.freeHead + w.nFrees
		if tail >= w.capacity {
			tail -= w.capacity
		}
		w.frees[tail] = at
		w.nFrees++
	}
	return w
}

// Capacity returns the total slot count.
func (w *WPQ) Capacity() int { return w.capacity }

// Occupancy returns slots in use (pending + in flight).
func (w *WPQ) Occupancy() int { return w.count + w.inFlight }

// Contains reports whether a pending (still coalescible) entry exists
// for the block address. It scans the window, at most capacity entries
// (Table I's 64): cheaper than keeping a hash set in step.
func (w *WPQ) Contains(addr int64) bool {
	end := w.head + w.count
	if end <= w.capacity {
		return hasAddr(w.addrs[w.head:end], addr)
	}
	return hasAddr(w.addrs[w.head:], addr) || hasAddr(w.addrs[:end-w.capacity], addr)
}

// hasAddr reports whether s holds addr.
func hasAddr(s []int64, addr int64) bool {
	for _, a := range s {
		if a == addr {
			return true
		}
	}
	return false
}

// reapFrees consumes completion events at or before cycle t.
func (w *WPQ) reapFrees(t int64) {
	for w.nFrees > 0 && w.frees[w.freeHead] <= t {
		w.popFree()
	}
}

// popFree consumes the oldest recorded completion and returns its cycle.
func (w *WPQ) popFree() int64 {
	c := w.frees[w.freeHead]
	if w.freeHead++; w.freeHead == w.capacity {
		w.freeHead = 0
	}
	w.nFrees--
	w.inFlight--
	return c
}

// issueOldest hands the oldest pending entry to its memory bank (or
// suppresses it via OnIssue, freeing the slot immediately). reason is
// one of the obs.Drain* labels.
func (w *WPQ) issueOldest(t int64, reason string) {
	addr, at := w.addrs[w.head], w.ats[w.head]
	if w.head++; w.head == w.capacity {
		w.head = 0
	}
	w.count--
	if w.Tracer != nil {
		residency := t - at
		if residency < 0 {
			residency = 0 // stall-path issue can predate the arrival cycle
		}
		w.Tracer.Emit(obs.Event{
			Kind:   obs.KindWPQDrain,
			Cycle:  t,
			Addr:   addr,
			Aux:    residency,
			Scheme: w.Scheme,
			Detail: reason,
		})
	}
	if w.OnIssue != nil && w.OnIssue(addr) {
		return
	}
	w.inFlight++
	ready := t
	if at > ready {
		ready = at
	}
	w.mem.Post(addr, sim.Item{Ready: ready, Dur: w.writeLat, Done: w.onRetire})
}

// drainExcess issues pending entries beyond the coalescing window and
// entries older than the age limit.
func (w *WPQ) drainExcess(t int64) {
	for w.count > w.drainAt {
		w.st.WPQIssuedByWatermark++
		w.issueOldest(t, obs.DrainWatermark)
	}
	for n := 0; n < maxAgeIssuesPerCall && w.count > 0 &&
		w.ats[w.head]+ageLimitFor(w.addrs[w.head]) <= t; n++ {
		w.st.WPQIssuedByAge++
		w.issueOldest(t, obs.DrainAge)
	}
}

// Insert records a block write entering the persistence domain at cycle
// t and returns when it was accepted. Writes to a block that already has
// a pending entry coalesce for free. A full queue stalls the caller
// until a drained write retires.
func (w *WPQ) Insert(t int64, addr int64) Result {
	w.mem.CatchUp(t)
	w.reapFrees(t)

	w.drainExcess(t)
	if w.Contains(addr) {
		// Coalesce into the existing entry. Its first-arrival time is
		// kept: coalescing is only for writes arriving close in time,
		// not a way to pin hot blocks in the queue forever.
		w.st.WPQCoalesced++
		return Result{When: t, Coalesced: true}
	}

	when := t
	var stall int64
	for w.Occupancy() >= w.capacity {
		// Make forward progress. Prefer consuming in-flight completions:
		// issuing pending entries would sacrifice the coalescing window
		// exactly when the queue is saturated and coalescing matters
		// most. Only when nothing at all is in flight are pending
		// entries issued.
		if w.nFrees > 0 {
			when = max(when, w.popFree())
			continue
		}
		if w.mem.Pending() > 0 {
			w.mem.ForceAny()
			continue
		}
		if w.count > 0 {
			w.st.WPQIssuedByStall++
			w.issueOldest(when, obs.DrainStall)
			continue
		}
		panic("wpq: full queue with nothing in flight")
	}
	if when > t {
		stall = when - t
		w.st.WPQStallCycles += stall
	}

	tail := w.head + w.count
	if tail >= w.capacity {
		tail -= w.capacity
	}
	w.addrs[tail], w.ats[tail] = addr, when
	w.count++
	w.drainExcess(when)
	return Result{When: when, Stall: stall}
}

// Flush hands every pending entry to the banks (end of run, or the ADR
// dump at a crash) at cycle t.
func (w *WPQ) Flush(t int64) {
	w.mem.CatchUp(t)
	w.reapFrees(t)
	for w.count > 0 {
		w.issueOldest(t, obs.DrainFlush)
	}
}

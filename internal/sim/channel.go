// Package sim provides the deterministic timing kernel for the Thoth
// model: a single NVM channel represented as a resource timeline with
// read priority and a low-priority write backlog.
//
// The model follows how persistent-memory controllers behave at the level
// that matters to the paper's results:
//
//   - Demand reads (CPU misses, metadata-cache misses on the persist
//     path) are latency-critical and are scheduled with priority: they
//     wait only for the operation currently occupying the channel, never
//     for queued write-backs.
//   - Writes (WPQ drains, PCB→PUB block writes, PUB eviction traffic)
//     are posted to a FIFO backlog and occupy the channel opportunistically
//     when it would otherwise idle. A read arriving while a backlog write
//     is in flight waits for that one write — writes are not preemptable.
//   - Completion callbacks let the WPQ free slots exactly when a drained
//     entry's write retires, which is what produces back-pressure on the
//     front-end when the write stream exceeds channel bandwidth.
//
// All times are in core cycles. The kernel is single-threaded and fully
// deterministic: identical inputs produce identical schedules.
package sim

// Item is one unit of low-priority channel occupancy (a write, or a
// background read performed by the PUB eviction engine).
type Item struct {
	// Ready is the earliest cycle the item may start.
	Ready int64
	// Dur is the channel occupancy in cycles.
	Dur int64
	// Done, if non-nil, runs when the item's completion time is
	// determined, receiving that completion cycle. It must not post new
	// channel work.
	Done func(completeAt int64)
}

// Channel is a single NVM channel timeline.
type Channel struct {
	free    int64 // completion cycle of the op currently in flight
	backlog []Item
	head    int // index of the first pending backlog item

	// ReadWaits is the number of already-queued writes a priority read
	// must wait behind (beyond the op in flight). Persistent-memory
	// characterization consistently shows writes interfering with read
	// latency — the device commits a burst of buffered writes before
	// serving the read. Zero means ideal read priority.
	ReadWaits int

	// BusyCycles accumulates total channel occupancy (reads + writes),
	// for utilization reporting.
	BusyCycles int64
}

// NewChannel returns an idle channel at cycle 0.
func NewChannel() *Channel { return &Channel{} }

// Pending returns the number of backlog items not yet executed.
func (ch *Channel) Pending() int { return len(ch.backlog) - ch.head }

// Post queues a low-priority occupancy item.
func (ch *Channel) Post(it Item) {
	if it.Dur <= 0 {
		panic("sim: item duration must be positive")
	}
	// Compact the slice once the dead prefix dominates, to keep memory
	// bounded over long runs.
	if ch.head > 1024 && ch.head*2 > len(ch.backlog) {
		n := copy(ch.backlog, ch.backlog[ch.head:])
		ch.backlog = ch.backlog[:n]
		ch.head = 0
	}
	ch.backlog = append(ch.backlog, it)
}

// execNext executes the oldest backlog item and returns its completion
// cycle. It panics if the backlog is empty.
func (ch *Channel) execNext() int64 {
	it := ch.backlog[ch.head]
	ch.backlog[ch.head] = Item{} // release Done closure
	ch.head++
	start := max64(it.Ready, ch.free)
	done := start + it.Dur
	ch.free = done
	ch.BusyCycles += it.Dur
	if it.Done != nil {
		it.Done(done)
	}
	return done
}

// CatchUp opportunistically executes backlog items that would have
// completed by cycle t, plus at most one item that would be in flight at
// t (writes are not preemptable). It returns the channel-free cycle.
func (ch *Channel) CatchUp(t int64) int64 {
	for ch.Pending() > 0 {
		it := ch.backlog[ch.head]
		start := max64(it.Ready, ch.free)
		if start >= t {
			break // would start after t: a priority op at t goes first
		}
		ch.execNext()
	}
	return ch.free
}

// Read schedules a priority operation of dur cycles requested at cycle t
// and returns its completion cycle. The operation waits for the item in
// flight at t (if any) plus up to ReadWaits already-queued writes, then
// bypasses the remaining backlog.
func (ch *Channel) Read(t, dur int64) int64 {
	if dur <= 0 {
		panic("sim: read duration must be positive")
	}
	ch.CatchUp(t)
	for i := 0; i < ch.ReadWaits && ch.Pending() > 0; i++ {
		if ch.backlog[ch.head].Ready > t {
			break // queued after the read arrived: the read wins
		}
		ch.execNext()
	}
	start := max64(t, ch.free)
	done := start + dur
	ch.free = done
	ch.BusyCycles += dur
	return done
}

// ForceNext eagerly executes the oldest backlog item regardless of the
// current time and returns its completion cycle. Callers use this when
// the front-end is blocked on a resource freed by a backlog completion
// (e.g. a full WPQ) and no other traffic would otherwise advance the
// channel. It panics if the backlog is empty.
func (ch *Channel) ForceNext() int64 {
	if ch.Pending() == 0 {
		panic("sim: ForceNext on empty backlog")
	}
	return ch.execNext()
}

// DrainAll executes the entire backlog and returns the cycle at which the
// channel finally goes idle. Used at end of run and at crash points
// (ADR flushes the persistence domain to media).
func (ch *Channel) DrainAll() int64 {
	for ch.Pending() > 0 {
		ch.execNext()
	}
	return ch.free
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

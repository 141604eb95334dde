package recovery

import (
	"repro/internal/config"
	"repro/internal/obs"
)

// replayWindow bounds how many consecutive ring entries the replay
// sorts at once. It is a memory bound (8 MiB per window half at 32 B
// per shardTask), not a tuning knob.
const replayWindow = 1 << 18

// radixBits is the digit width of the window's LSD radix sort: three
// passes cover a 32-bit block index, which a corrupt entry may hold.
const radixBits = 11

// shardTask is one PUB entry queued for replay: the entry fields
// mergeEntry reads, the modeled cycle the FIFO scan accounted it at (so
// every path stamps the same per-entry cycles on its merge events), its
// position in its replay window, and its outcome once merged.
type shardTask struct {
	cyc   int64
	mac2  uint64
	block uint32
	pos   uint32
	minor uint8
	out   outcome
}

// outcome is what merging one PUB entry did. The low two bits of a
// fresh entry's outcome flag the counter and MAC merges.
type outcome uint8

const (
	outNoop outcome = iota
	outCtr
	outMAC
	outCtrMAC
	outStale
	outOutOfRange
)

// outcomeDetail is each outcome's KindRecoveryMerge event detail.
var outcomeDetail = [...]string{"noop", "ctr", "mac", "ctr+mac", "stale", "out-of-range"}

// window is the replay's buffer: up to len(a) consecutive ring entries
// queued in a in ring order, and b, the half the radix sort ping-pongs
// through.
type window struct {
	a, b []shardTask
	n    int // tasks queued in a
}

// newWindow allocates both halves of a window of min(size, entries)
// tasks with one make.
func newWindow(size int, entries int64) window {
	n := int(min(int64(size), entries))
	buf := make([]shardTask, 2*n)
	return window{a: buf[:n:n], b: buf[n:]}
}

// add queues t and reports whether the window is now full.
func (w *window) add(t shardTask) bool {
	w.a[w.n] = t
	w.n++
	return w.n == len(w.a)
}

// flush merges the queued tasks through m in ascending data-block order,
// the entries of one block in ring order, and empties the window. When
// the run is traced it returns the tasks in ring order again, each with
// its outcome; otherwise nil.
func (w *window) flush(m *merger) []shardTask {
	sorted, spare := w.sortByBlock()
	w.n = 0
	for i := range sorted {
		sorted[i].out = m.mergeEntry(&sorted[i])
	}
	if m.cfg.Tracer == nil {
		return nil
	}
	ring := spare[:len(sorted)]
	for _, t := range sorted {
		ring[t.pos] = t
	}
	return ring
}

// sortByBlock records each queued task's ring position, then stably
// sorts the tasks by block index with 11-bit LSD radix passes that
// ping-pong between the halves, one pass per digit the block indices
// still hold. It returns the sorted tasks and the other half.
func (w *window) sortByBlock() (sorted, spare []shardTask) {
	const digits = (32 + radixBits - 1) / radixBits
	const mask = 1<<radixBits - 1
	src, dst := w.a[:w.n], w.b[:w.n]
	var count [digits][1 << radixBits]uint32
	var keys uint32
	for i := range src {
		k := src[i].block
		src[i].pos = uint32(i)
		keys |= k
		for d := range count {
			count[d][k>>(d*radixBits)&mask]++
		}
	}
	for d := 0; d < digits && keys>>(d*radixBits) != 0; d++ {
		c := &count[d]
		var sum uint32
		for v, n := range c {
			c[v] = sum
			sum += n
		}
		shift := d * radixBits
		for _, t := range src {
			v := t.block >> shift & mask
			dst[c[v]] = t
			c[v]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// emitMerges reports each task's outcome as a KindRecoveryMerge event,
// in slice order.
func emitMerges(cfg config.Config, tasks []shardTask) {
	for _, t := range tasks {
		cfg.Tracer.Emit(obs.Event{
			Kind:   obs.KindRecoveryMerge,
			Cycle:  t.cyc,
			Addr:   int64(t.block) * int64(cfg.BlockSize),
			Scheme: cfg.Scheme.String(),
			Detail: outcomeDetail[t.out],
		})
	}
}

// replayShard merges one shard's tasks, queued in ring order, through m
// a window at a time. The window sorts each slice of tasks in place,
// with one spare half; when the run is traced, the tasks end in ring
// order again, each with its outcome.
func replayShard(tasks []shardTask, m *merger, size int) {
	spare := make([]shardTask, min(size, len(tasks)))
	for rest := tasks; len(rest) > 0; {
		n := min(len(spare), len(rest))
		w := window{a: rest[:n], b: spare[:n], n: n}
		copy(rest, w.flush(m))
		rest = rest[n:]
	}
}

package recovery

import (
	"sync"

	"repro/internal/config"
	"repro/internal/obs"
)

// replayWindow bounds how many consecutive ring entries the replay
// sorts at once. It is a memory bound (8 MiB per window half at 32 B
// per shardTask, one window per run at any worker count), not a tuning
// knob.
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

// flush merges the queued tasks through ms and empties the window. It
// sorts them by data block; with more than one merger it splits them by
// the shard owning their metadata group (groups of group data blocks),
// keeping that order, and merges each shard's slice on its own
// goroutine, joined before flush returns. When the run is traced it
// then emits every outcome in ring order.
func (w *window) flush(cfg config.Config, ms []merger, group int64) {
	sorted, spare := w.sortByBlock()
	w.n = 0
	if len(ms) == 1 {
		ms[0].merge(sorted)
	} else {
		bounds := splitByShard(sorted, spare, group, len(ms))
		var wg sync.WaitGroup
		for s := range ms {
			tasks := spare[bounds[s]:bounds[s+1]]
			if len(tasks) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms[s].merge(tasks)
			}()
		}
		wg.Wait()
		sorted, spare = spare, sorted
	}
	if cfg.Tracer == nil {
		return
	}
	ring := spare[:len(sorted)]
	for _, t := range sorted {
		ring[t.pos] = t
	}
	emitMerges(cfg, ring)
}

// splitByShard copies src into dst grouped by shard, shard 0 first,
// each shard's tasks in src order, and returns the bounds: shard s's
// tasks are dst[bounds[s]:bounds[s+1]].
func splitByShard(src, dst []shardTask, group int64, shards int) (bounds [maxWorkers + 1]uint32) {
	for _, t := range src {
		bounds[shardOf(int64(t.block)/group, shards)+1]++
	}
	for s := 1; s <= shards; s++ {
		bounds[s] += bounds[s-1]
	}
	next := bounds
	for _, t := range src {
		s := shardOf(int64(t.block)/group, shards)
		dst[next[s]] = t
		next[s]++
	}
	return bounds
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

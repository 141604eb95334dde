package recovery

import (
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/pub"
)

// replayWindow bounds how many consecutive ring entries one replay
// window holds. The replay keeps two windows, one being scanned and
// sorted while the other merges, each with two halves for the radix
// sort: at 32 B per shardTask that is at most 16 MiB at any worker
// count. It is a memory bound, not a tuning knob.
const replayWindow = 1 << 17

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

// window is one replay buffer: up to len(a) consecutive ring entries
// queued in a in ring order, and b, the half the radix sort ping-pongs
// through. Once prepared, tasks holds the entries in merge order,
// spare the other half, and with several mergers bounds splits tasks
// by shard.
type window struct {
	a, b   []shardTask
	n      int // tasks queued in a
	tasks  []shardTask
	spare  []shardTask
	bounds [maxWorkers + 1]uint32
}

// add queues t and reports whether the window is now full.
func (w *window) add(t shardTask) bool {
	w.a[w.n] = t
	w.n++
	return w.n == len(w.a)
}

// prepare sorts the queued tasks by data block and empties the queue;
// with more than one shard it then splits them by the shard owning
// their metadata group (groups of group data blocks), keeping that
// order.
func (w *window) prepare(group int64, shards int) {
	w.tasks, w.spare = w.sortByBlock()
	w.n = 0
	if shards > 1 {
		w.bounds = splitByShard(w.tasks, w.spare, group, shards)
		w.tasks, w.spare = w.spare, w.tasks
	}
}

// merge merges a prepared window through ms: one merger runs it on the
// caller's goroutine; several each run their shard's slice on a
// goroutine of their own, joined through wg before merge returns. When
// the run is traced it then emits every outcome in ring order.
func (w *window) merge(cfg config.Config, ms []merger, wg *sync.WaitGroup) {
	if len(ms) == 1 {
		ms[0].merge(w.tasks)
	} else {
		for s := range ms {
			if tasks := w.tasks[w.bounds[s]:w.bounds[s+1]]; len(tasks) > 0 {
				wg.Add(1)
				go ms[s].mergeAsync(tasks, wg)
			}
		}
		wg.Wait()
	}
	if cfg.Tracer == nil {
		return
	}
	ring := w.spare[:len(w.tasks)]
	for _, t := range w.tasks {
		ring[t.pos] = t
	}
	emitMerges(cfg, ring)
}

// pipeline hands the two replay windows between the producer
// goroutine, which scans the ring into a free window, then sorts and
// splits it, and the caller, which merges the full windows in ring
// order and frees them. The channels carry window indices and each
// holds both, so only the producer's wait for a free window blocks.
type pipeline struct {
	win        [2]window
	free, full chan int
	// done closes when the caller stops merging, on every return path;
	// producer is the producer's exit.
	done     chan struct{}
	producer sync.WaitGroup
	// entries and busyNS are the producer's entry count and scan and
	// sort wall time, final once full is closed.
	entries int64
	busyNS  int64
	// merging joins a window's shard goroutines.
	merging sync.WaitGroup
}

// newPipeline allocates the windows for a ring of entries entries with
// one make: the first holds min(size, entries) tasks, at least one, the
// second the rest up to size; it is left out when the first holds the
// whole ring.
func newPipeline(size int, entries int64) *pipeline {
	n1 := max(1, min(int64(size), entries))
	n2 := min(int64(size), max(0, entries-n1))
	buf := make([]shardTask, 2*(n1+n2))
	p := &pipeline{free: make(chan int, 2), full: make(chan int, 2), done: make(chan struct{})}
	for i, n := range [2]int64{n1, n2} {
		if n > 0 {
			p.win[i] = window{a: buf[:n:n], b: buf[n : 2*n : 2*n]}
			buf = buf[2*n:]
			p.free <- i
		}
	}
	return p
}

// start runs the producer over ring on a goroutine of its own.
func (p *pipeline) start(cfg config.Config, ring *pub.Ring, group int64, shards int) {
	p.producer.Add(1)
	go p.produce(cfg, ring, group, shards)
}

// produce is the producer: it scans ring into the free windows,
// prepares each full window and the last, and hands them on in ring
// order. It returns early once done closes.
func (p *pipeline) produce(cfg config.Config, ring *pub.Ring, group int64, shards int) {
	defer p.producer.Done()
	defer close(p.full)
	cur := -1 // the window being filled, if any
	busy := time.Now()
	hand := func() {
		p.win[cur].prepare(group, shards)
		p.full <- cur
		cur = -1
	}
	p.entries = scanPUB(cfg, ring, func(t shardTask) bool {
		if cur < 0 {
			p.busyNS += time.Since(busy).Nanoseconds()
			select {
			case cur = <-p.free:
			case <-p.done:
				return false
			}
			busy = time.Now()
		}
		if p.win[cur].add(t) {
			hand()
		}
		return true
	})
	if cur >= 0 {
		hand()
	}
	p.busyNS += time.Since(busy).Nanoseconds()
}

// stop ends the producer and waits for it to return.
func (p *pipeline) stop() {
	close(p.done)
	p.producer.Wait()
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

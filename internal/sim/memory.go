package sim

import "fmt"

// Memory is a bank-interleaved NVM timing model: consecutive blocks map
// to different banks (round-robin by block index), each bank being an
// independent Channel timeline. This captures the device-level
// parallelism real modules have — writes to different banks overlap,
// while traffic to one bank serializes — without which a single shared
// timeline would overstate write pressure for every scheme.
type Memory struct {
	banks     []*Channel
	blockSize int64
}

// NewMemory builds a memory with the given bank count and interleave
// granularity (the cache-block size), with ideal read priority.
func NewMemory(banks, blockSize int) *Memory {
	return NewMemoryRW(banks, blockSize, 0)
}

// NewMemoryRW builds a memory whose banks make each demand read wait
// behind up to readWaits already-queued writes (write-to-read
// interference).
func NewMemoryRW(banks, blockSize, readWaits int) *Memory {
	if banks <= 0 || blockSize <= 0 || readWaits < 0 {
		panic(fmt.Sprintf("sim: invalid memory geometry banks=%d block=%d readWaits=%d", banks, blockSize, readWaits))
	}
	m := &Memory{blockSize: int64(blockSize)}
	for i := 0; i < banks; i++ {
		c := NewChannel()
		c.ReadWaits = readWaits
		m.banks = append(m.banks, c)
	}
	return m
}

// bank routes a block address to its bank. Higher address bits are
// hashed into the index (as real controllers do) so that power-of-two
// strides — per-core heap slices, metadata regions — do not all collide
// on one bank.
func (m *Memory) bank(addr int64) *Channel {
	h := uint64(addr / m.blockSize)
	h ^= h >> 8
	h ^= h >> 16
	h ^= h >> 32
	return m.banks[h%uint64(len(m.banks))]
}

// Read schedules a priority read of dur cycles for addr at cycle t.
func (m *Memory) Read(t, addr, dur int64) int64 {
	return m.bank(addr).Read(t, dur)
}

// Post queues low-priority occupancy for addr's bank.
func (m *Memory) Post(addr int64, it Item) {
	m.bank(addr).Post(it)
}

// CatchUp advances every bank to cycle t.
func (m *Memory) CatchUp(t int64) {
	for _, b := range m.banks {
		b.CatchUp(t)
	}
}

// Pending returns queued-but-unexecuted items across all banks.
func (m *Memory) Pending() int {
	n := 0
	for _, b := range m.banks {
		n += b.Pending()
	}
	return n
}

// ForceAny eagerly executes the most urgent pending item across banks
// (the one that would start earliest) and returns its completion cycle.
// It panics when nothing is pending.
func (m *Memory) ForceAny() int64 {
	var best *Channel
	var bestStart int64
	for _, b := range m.banks {
		if b.Pending() == 0 {
			continue
		}
		it := b.backlog[b.head]
		start := max64(it.Ready, b.free)
		if best == nil || start < bestStart {
			best, bestStart = b, start
		}
	}
	if best == nil {
		panic("sim: ForceAny with no pending items")
	}
	return best.ForceNext()
}

// DrainAll executes every pending item and returns the cycle at which
// the last bank goes idle.
func (m *Memory) DrainAll() int64 {
	var last int64
	for _, b := range m.banks {
		if done := b.DrainAll(); done > last {
			last = done
		}
	}
	return last
}

// BusyCycles sums occupancy across banks.
func (m *Memory) BusyCycles() int64 {
	var n int64
	for _, b := range m.banks {
		n += b.BusyCycles
	}
	return n
}

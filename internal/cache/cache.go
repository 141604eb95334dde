// Package cache implements the set-associative, write-back, LRU cache
// used throughout the model: the counter cache, MAC cache and Merkle-tree
// cache inside the memory controller (which hold real block contents),
// and the LLC filter (which holds tags only).
//
// Lines carry two pieces of per-line user state the Thoth design needs:
//
//   - Data: the cached block contents (nil for tag-only caches).
//   - Mask: a per-slot dirty bitmask. WTBC (Write-back Through Bitmask
//     Checks, Section IV-B) tracks which individual MACs/counters inside
//     the block were updated since the block was fetched or persisted.
package cache

import "fmt"

// Line is one cache line. Callers may mutate Data, Dirty and Mask through
// the pointer returned by Lookup/Insert; the cache owns placement only.
type Line struct {
	// Addr is the block-aligned address tagged by this line.
	Addr int64
	// Dirty marks the line as modified relative to memory.
	Dirty bool
	// Data holds block contents for caches that store payloads.
	Data []byte
	// Mask is user state: per-slot dirty bits within the block (WTBC).
	Mask uint64
	// used is the LRU timestamp.
	used int64
	// valid distinguishes live lines from free slots.
	valid bool
}

// EvictFn observes a victim line leaving the cache. If the line is dirty
// the callee is responsible for writing it back.
type EvictFn func(victim Line)

// Cache is a set-associative write-back cache.
type Cache struct {
	blockSize int
	ways      int
	numSets   int
	sets      []Line // numSets * ways, set-major
	tick      int64

	// OnEvict, if non-nil, is called for every line displaced by Insert
	// or removed by InvalidateAll.
	OnEvict EvictFn
}

// New builds a cache of totalBytes capacity with the given block size and
// associativity. Capacity is rounded down to a whole number of sets; at
// least one set is always allocated.
func New(totalBytes, blockSize, ways int) *Cache {
	if totalBytes <= 0 || blockSize <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry bytes=%d block=%d ways=%d", totalBytes, blockSize, ways))
	}
	lines := totalBytes / blockSize
	if lines < ways {
		ways = lines
		if ways == 0 {
			ways = 1
		}
	}
	numSets := lines / ways
	if numSets == 0 {
		numSets = 1
	}
	return &Cache{
		blockSize: blockSize,
		ways:      ways,
		numSets:   numSets,
		sets:      make([]Line, numSets*ways),
	}
}

// BlockSize returns the line size in bytes.
func (c *Cache) BlockSize() int { return c.blockSize }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// Lines returns the total line count.
func (c *Cache) Lines() int { return c.numSets * c.ways }

func (c *Cache) setFor(addr int64) []Line {
	if addr%int64(c.blockSize) != 0 {
		panic(fmt.Sprintf("cache: address %#x not aligned to %d", addr, c.blockSize))
	}
	set := int((addr / int64(c.blockSize)) % int64(c.numSets))
	return c.sets[set*c.ways : (set+1)*c.ways]
}

// Lookup returns the line holding addr, bumping its LRU position. It
// returns nil on miss.
func (c *Cache) Lookup(addr int64) *Line {
	set := c.setFor(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			c.tick++
			set[i].used = c.tick
			return &set[i]
		}
	}
	return nil
}

// Probe returns the line holding addr without touching LRU state. It
// returns nil when absent. The PUB eviction engine uses this so that
// crash-consistency bookkeeping does not perturb cache placement.
func (c *Cache) Probe(addr int64) *Line {
	set := c.setFor(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Insert places a new line for addr with the given payload (which the
// cache takes ownership of; pass nil for tag-only caches) and returns it.
// If the set is full the LRU victim is evicted through OnEvict first.
// Inserting an address that is already present panics: callers must
// Lookup first.
func (c *Cache) Insert(addr int64, data []byte) *Line {
	set := c.setFor(addr)
	victim := -1
	for i := range set {
		if set[i].valid {
			if set[i].Addr == addr {
				panic(fmt.Sprintf("cache: double insert of %#x", addr))
			}
			if victim == -1 || set[i].used < set[victim].used {
				victim = i
			}
		} else if victim == -1 || set[victim].valid {
			victim = i
		}
	}
	if set[victim].valid && c.OnEvict != nil {
		c.OnEvict(set[victim])
	}
	c.tick++
	set[victim] = Line{Addr: addr, Data: data, used: c.tick, valid: true}
	return &set[victim]
}

// InsertCopy places a new line for addr holding a copy of src, reusing
// the evicted victim's Data buffer when one of the right size is
// available. OnEvict (which runs synchronously before the line is
// recycled) must not retain the victim's Data slice. This is the
// fill-path variant for callers reading from borrowed device storage.
func (c *Cache) InsertCopy(addr int64, src []byte) *Line {
	set := c.setFor(addr)
	victim := -1
	for i := range set {
		if set[i].valid {
			if set[i].Addr == addr {
				panic(fmt.Sprintf("cache: double insert of %#x", addr))
			}
			if victim == -1 || set[i].used < set[victim].used {
				victim = i
			}
		} else if victim == -1 || set[victim].valid {
			victim = i
		}
	}
	if set[victim].valid && c.OnEvict != nil {
		c.OnEvict(set[victim])
	}
	buf := set[victim].Data
	if len(buf) != len(src) {
		buf = make([]byte, len(src))
	}
	copy(buf, src)
	c.tick++
	set[victim] = Line{Addr: addr, Data: buf, used: c.tick, valid: true}
	return &set[victim]
}

// Invalidate drops the line for addr without calling OnEvict, returning
// the line's final state and whether it was present. Used by crash
// injection (volatile caches lose their contents).
func (c *Cache) Invalidate(addr int64) (Line, bool) {
	set := c.setFor(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			l := set[i]
			set[i] = Line{}
			return l, true
		}
	}
	return Line{}, false
}

// ForEach visits every valid line in an unspecified but deterministic
// order. The callback may mutate the line through the pointer but must
// not insert or invalidate.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.sets {
		if c.sets[i].valid {
			fn(&c.sets[i])
		}
	}
}

// WriteBackAll calls OnEvict for every dirty line, marks them clean, and
// returns how many lines were written back. Lines stay resident.
func (c *Cache) WriteBackAll() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].Dirty {
			if c.OnEvict != nil {
				c.OnEvict(c.sets[i])
			}
			c.sets[i].Dirty = false
			c.sets[i].Mask = 0
			n++
		}
	}
	return n
}

// DropAll empties the cache without any write-backs, modelling the loss
// of volatile state at a crash.
func (c *Cache) DropAll() {
	for i := range c.sets {
		c.sets[i] = Line{}
	}
}

// DirtyLines returns the number of valid dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].Dirty {
			n++
		}
	}
	return n
}

// Package llc models the shared last-level cache that filters CPU
// accesses before they reach the secure memory controller (Table I:
// 16MB, 16-way, 32 cycles).
//
// Persistent-memory semantics follow x86: clwb writes a dirty line back
// (through the secure write path) but keeps it resident and clean;
// ordinary dirty evictions also go through the secure write path, since
// every line leaving the chip must be encrypted and MACed.
package llc

import "repro/internal/cache"

// LLC is the last-level cache filter.
type LLC struct {
	c *cache.Cache
	// HitLatency is charged for every access that hits.
	HitLatency int64
	// hits and misses count Load and Store lookups.
	hits, misses int64
}

// New builds an LLC. onDirtyEvict is called when a dirty victim leaves
// the cache and must be written back through the memory controller.
func New(totalBytes, blockSize, ways int, hitLatency int64, onDirtyEvict func(addr int64)) *LLC {
	l := &LLC{c: cache.New(totalBytes, blockSize, ways), HitLatency: hitLatency}
	l.c.OnEvict = func(v cache.Line) {
		if v.Dirty && onDirtyEvict != nil {
			onDirtyEvict(v.Addr)
		}
	}
	return l
}

// Load returns whether the block hit; on a miss the line is allocated
// (the caller performs the actual memory read).
func (l *LLC) Load(addr int64) bool {
	if l.c.Lookup(addr) != nil {
		l.hits++
		return true
	}
	l.misses++
	l.c.Insert(addr, nil)
	return false
}

// Store marks the block dirty, allocating on miss. It returns whether
// the block hit (a miss requires a write-allocate fill unless the store
// covers the whole block).
func (l *LLC) Store(addr int64) bool {
	if ln := l.c.Lookup(addr); ln != nil {
		ln.Dirty = true
		l.hits++
		return true
	}
	l.misses++
	l.c.Insert(addr, nil).Dirty = true
	return false
}

// CLWB marks the block clean if resident (the caller performs the secure
// write-back). A clwb of a non-resident block is a no-op. It reports
// whether the line was resident and dirty (i.e. a write-back happened).
func (l *LLC) CLWB(addr int64) bool {
	ln := l.c.Probe(addr)
	if ln == nil || !ln.Dirty {
		return false
	}
	ln.Dirty = false
	return true
}

// DropAll empties the cache without write-backs (crash: the hierarchy is
// volatile under plain ADR).
func (l *LLC) DropAll() { l.c.DropAll() }

// FlushDirty visits every dirty line (calling fn so the owner can push
// it through the secure write path) and marks it clean. This is the
// eADR residual-power flush: under enhanced ADR a crash drains the
// whole hierarchy. Returns the number of lines flushed.
func (l *LLC) FlushDirty(fn func(addr int64)) int {
	n := 0
	l.c.ForEach(func(ln *cache.Line) {
		if ln.Dirty {
			fn(ln.Addr)
			ln.Dirty = false
			n++
		}
	})
	return n
}

// Stats returns hit and miss counts.
func (l *LLC) Stats() (hits, misses int64) { return l.hits, l.misses }

// DirtyLines returns the number of dirty lines (used by tests and by the
// crash model to quantify what plain ADR loses versus eADR).
func (l *LLC) DirtyLines() int { return l.c.DirtyLines() }

package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New(64<<10, 64, 4) // 64KB, 64B lines, 4-way -> 1024 lines, 256 sets
	if c.Lines() != 1024 || c.Sets() != 256 || c.Ways() != 4 {
		t.Fatalf("geometry = %d lines / %d sets / %d ways, want 1024/256/4",
			c.Lines(), c.Sets(), c.Ways())
	}
}

func TestTinyCacheClampsWays(t *testing.T) {
	c := New(128, 64, 8) // only 2 lines available
	if c.Lines() != 2 {
		t.Fatalf("Lines = %d, want 2", c.Lines())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(1024, 64, 2)
	if c.Lookup(0) != nil {
		t.Fatal("lookup on empty cache must miss")
	}
	c.Insert(0, nil)
	if c.Lookup(0) == nil {
		t.Fatal("lookup after insert must hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction of a single-set cache: 2 ways, 2 lines total.
	c := New(128, 64, 2)
	var evicted []int64
	c.OnEvict = func(v Line) { evicted = append(evicted, v.Addr) }
	c.Insert(0, nil)
	c.Insert(64, nil)
	c.Lookup(0) // make 64 the LRU
	c.Insert(128, nil)
	if len(evicted) != 1 || evicted[0] != 64 {
		t.Fatalf("evicted = %v, want [64]", evicted)
	}
	if c.Probe(0) == nil || c.Probe(128) == nil || c.Probe(64) != nil {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := New(128, 64, 2)
	var evicted []int64
	c.OnEvict = func(v Line) { evicted = append(evicted, v.Addr) }
	c.Insert(0, nil)
	c.Insert(64, nil)
	c.Probe(0) // must NOT refresh 0
	c.Insert(128, nil)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0] (probe must not refresh LRU)", evicted)
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := New(1024, 64, 2)
	c.Insert(0, nil)
	defer func() {
		if recover() == nil {
			t.Error("double insert must panic")
		}
	}()
	c.Insert(0, nil)
}

func TestUnalignedPanics(t *testing.T) {
	c := New(1024, 64, 2)
	defer func() {
		if recover() == nil {
			t.Error("unaligned address must panic")
		}
	}()
	c.Lookup(3)
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 64, 2)
	var evicts int
	c.OnEvict = func(Line) { evicts++ }
	l := c.Insert(0, nil)
	l.Dirty = true
	got, ok := c.Invalidate(0)
	if !ok || !got.Dirty || got.Addr != 0 {
		t.Fatalf("Invalidate returned (%+v,%v)", got, ok)
	}
	if evicts != 0 {
		t.Fatal("Invalidate must not call OnEvict")
	}
	if _, ok := c.Invalidate(0); ok {
		t.Fatal("second invalidate must miss")
	}
}

func TestWriteBackAll(t *testing.T) {
	c := New(1024, 64, 2)
	var wb []int64
	c.OnEvict = func(v Line) {
		if v.Dirty {
			wb = append(wb, v.Addr)
		}
	}
	c.Insert(0, nil).Dirty = true
	ln := c.Insert(64, nil)
	ln.Dirty = true
	ln.Mask = 0xFF
	c.Insert(128, nil) // clean
	if n := c.WriteBackAll(); n != 2 {
		t.Fatalf("WriteBackAll = %d, want 2", n)
	}
	if len(wb) != 2 {
		t.Fatalf("write-backs = %v, want 2 entries", wb)
	}
	if c.DirtyLines() != 0 {
		t.Fatal("all lines must be clean after WriteBackAll")
	}
	if l := c.Probe(64); l == nil || l.Mask != 0 {
		t.Fatal("WriteBackAll must clear masks and keep lines resident")
	}
}

func TestDropAll(t *testing.T) {
	c := New(1024, 64, 2)
	var evicts int
	c.OnEvict = func(Line) { evicts++ }
	c.Insert(0, nil).Dirty = true
	c.DropAll()
	if evicts != 0 {
		t.Fatal("DropAll must not write back (crash semantics)")
	}
	if c.Probe(0) != nil || c.DirtyLines() != 0 {
		t.Fatal("cache must be empty after DropAll")
	}
}

func TestForEach(t *testing.T) {
	c := New(1024, 64, 2)
	c.Insert(0, nil)
	c.Insert(64, nil)
	seen := map[int64]bool{}
	c.ForEach(func(l *Line) { seen[l.Addr] = true })
	if !seen[0] || !seen[64] || len(seen) != 2 {
		t.Fatalf("ForEach visited %v", seen)
	}
}

func TestDataOwnership(t *testing.T) {
	c := New(1024, 64, 2)
	data := make([]byte, 64)
	data[0] = 5
	l := c.Insert(0, data)
	l.Data[0] = 9
	if c.Probe(0).Data[0] != 9 {
		t.Fatal("line data must be shared through the returned pointer")
	}
}

// Property: the cache never holds more lines than capacity, never holds
// duplicates, and (conservation) every inserted address is either
// resident or was reported to OnEvict.
func TestCacheConservationProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		c := New(512, 64, 2) // 8 lines, 4 sets
		evicted := map[int64]int{}
		c.OnEvict = func(v Line) { evicted[v.Addr]++ }
		inserted := map[int64]int{}
		for _, a := range addrs {
			addr := int64(a%32) * 64
			if c.Lookup(addr) == nil {
				c.Insert(addr, nil)
				inserted[addr]++
			}
		}
		resident := map[int64]bool{}
		n := 0
		c.ForEach(func(l *Line) {
			if resident[l.Addr] {
				return // duplicate: will fail below via count
			}
			resident[l.Addr] = true
			n++
		})
		if n > c.Lines() {
			return false
		}
		for addr, ins := range inserted {
			want := ins
			if resident[addr] {
				want--
			}
			if evicted[addr] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a victim is always the least-recently-used line in its set.
func TestLRUVictimProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(256, 64, 4) // one set, 4 ways
		type access struct {
			addr int64
			at   int
		}
		last := map[int64]int{}
		ok := true
		c.OnEvict = func(v Line) {
			// Victim must have the oldest last-access among residents
			// at eviction time (residents are checked via Probe later;
			// here we check against all tracked lines still resident).
			for a, at := range last {
				if a != v.Addr && c.Probe(a) != nil && at < last[v.Addr] {
					ok = false
				}
			}
		}
		for i, op := range ops {
			addr := int64(op%8) * 64
			if l := c.Lookup(addr); l == nil {
				c.Insert(addr, nil)
			}
			last[addr] = i
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package wpq

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

const lat = 2000

// mem1 returns single-bank memory so tests reason about strict
// serialization; multi-bank behaviour is covered by property tests.
func mem1() *sim.Memory { return sim.NewMemory(1, 64) }

func TestInsertBelowWatermarkDoesNotDrain(t *testing.T) {
	m := mem1()
	w := New(m, 8, 4, lat, new(stats.Stats))
	for i := 0; i < 4; i++ {
		res := w.Insert(int64(i), int64(i*64))
		if res.Stall != 0 || res.Coalesced {
			t.Fatalf("insert %d: unexpected result %+v", i, res)
		}
	}
	if m.Pending() != 0 {
		t.Fatal("inserts within the watermark window must not reach memory")
	}
	if w.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", w.Occupancy())
	}
}

func TestDrainExcessBeyondWatermark(t *testing.T) {
	m := mem1()
	w := New(m, 8, 4, lat, new(stats.Stats))
	for i := 0; i < 6; i++ {
		w.Insert(0, int64(i*64))
	}
	// 6 entries, window of 4: the 2 oldest must have been issued.
	if m.Pending() != 2 {
		t.Fatalf("memory backlog = %d, want 2", m.Pending())
	}
	// The oldest two are no longer coalescible.
	if w.Contains(0) || w.Contains(64) {
		t.Fatal("issued entries must not be coalescible")
	}
	if !w.Contains(128) {
		t.Fatal("window entries must remain coalescible")
	}
}

func TestCoalescingSameAddress(t *testing.T) {
	var st stats.Stats
	w := New(mem1(), 8, 8, lat, &st)
	if w.Insert(0, 64).Coalesced {
		t.Fatal("first write to an address must take a slot")
	}
	res := w.Insert(1, 64)
	if !res.Coalesced {
		t.Fatal("write to pending address must coalesce")
	}
	if w.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", w.Occupancy())
	}
	if st.WPQCoalesced != 1 {
		t.Fatalf("WPQCoalesced = %d, want 1", st.WPQCoalesced)
	}
}

func TestFullQueueStalls(t *testing.T) {
	m := mem1()
	var st stats.Stats
	w := New(m, 2, 2, lat, &st)
	w.Insert(0, 0)
	w.Insert(0, 64)
	res := w.Insert(0, 128)
	// Both prior entries must be issued and the first retire (at 2000)
	// frees the slot.
	if res.Stall == 0 || res.When != 2000 {
		t.Fatalf("expected stall until 2000, got %+v", res)
	}
	if st.WPQStallCycles != res.Stall {
		t.Fatalf("WPQStallCycles = %d, want %d", st.WPQStallCycles, res.Stall)
	}
}

func TestSlotsFreeOverTime(t *testing.T) {
	m := mem1()
	w := New(m, 2, 1, lat, new(stats.Stats)) // watermark 1: second insert issues the first
	w.Insert(0, 0)
	w.Insert(0, 64)
	// By t=10000 issued writes retired; queue has room without stalling.
	res := w.Insert(10000, 128)
	if res.Stall != 0 || res.When != 10000 {
		t.Fatalf("expected free insert at 10000, got %+v", res)
	}
}

func TestFlushIssuesEverything(t *testing.T) {
	m := mem1()
	w := New(m, 8, 8, lat, new(stats.Stats))
	w.Insert(0, 0)
	w.Insert(0, 64)
	w.Flush(100)
	if m.Pending() != 2 {
		t.Fatalf("memory backlog = %d after flush, want 2", m.Pending())
	}
	m.DrainAll()
	w.reapFrees(1 << 60)
	if w.Occupancy() != 0 {
		t.Fatalf("occupancy = %d after full drain, want 0", w.Occupancy())
	}
}

func TestConstructorPanics(t *testing.T) {
	m := mem1()
	cases := []func(){
		func() { New(m, 0, 1, lat, new(stats.Stats)) },
		func() { New(m, 8, 0, lat, new(stats.Stats)) },
		func() { New(m, 8, 9, lat, new(stats.Stats)) },
		func() { New(m, 8, 4, 0, new(stats.Stats)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAgeLimitDrainsStaleEntries(t *testing.T) {
	m := mem1()
	w := New(m, 16, 8, lat, new(stats.Stats))
	w.Insert(0, 0)
	if !w.Contains(0) {
		t.Fatal("fresh entry must be pending")
	}
	// A much later insert drains the aged entry even though the queue is
	// nearly empty (the jittered limit is at most 1.5x the base).
	w.Insert(AgeLimitCycles*2, 64)
	if w.Contains(0) {
		t.Fatal("aged entry must have been issued")
	}
	if !w.Contains(64) {
		t.Fatal("fresh entry must remain coalescible")
	}
}

func TestCoalesceKeepsArrivalAge(t *testing.T) {
	m := mem1()
	w := New(m, 16, 8, lat, new(stats.Stats))
	// Continuous coalescing must not extend the entry's lifetime: after
	// the age limit the entry is issued and the next write to the block
	// consumes a fresh slot instead of coalescing.
	inserted := 0
	for tm := int64(0); tm < AgeLimitCycles*3; tm += 1000 {
		if !w.Insert(tm, 0).Coalesced {
			inserted++
		}
	}
	if inserted < 2 {
		t.Fatalf("%d inserts took a slot, want >=2 (aged entry must drain and be re-inserted)", inserted)
	}
}

// Property: occupancy never exceeds capacity, time never regresses, and
// a final flush+drain empties the queue — across bank counts.
func TestOccupancyBoundProperty(t *testing.T) {
	f := func(addrs []uint8, capRaw, drainRaw, banksRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		drainAt := int(drainRaw)%capacity + 1
		banks := int(banksRaw)%4 + 1
		m := sim.NewMemory(banks, 64)
		w := New(m, capacity, drainAt, lat, new(stats.Stats))
		var now int64
		for _, a := range addrs {
			res := w.Insert(now, int64(a%32)*64)
			if res.When < now {
				return false
			}
			now = res.When
			if w.Occupancy() > capacity {
				return false
			}
			now += 10
		}
		w.Flush(now)
		m.DrainAll()
		w.reapFrees(1 << 62)
		return w.Occupancy() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the ledger counts exactly the coalesces and stall cycles
// that Insert's Results report.
func TestInsertAccountingProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		var st stats.Stats
		w := New(sim.NewMemory(2, 64), 8, 4, lat, &st)
		var now, coalesced, stall int64
		for _, a := range addrs {
			res := w.Insert(now, int64(a%8)*64)
			if res.Coalesced {
				coalesced++
			}
			stall += res.Stall
			now = res.When + 1
		}
		return st.WPQCoalesced == coalesced && st.WPQStallCycles == stall
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a larger coalescing window never coalesces less for the same
// trace.
func TestWindowMonotoneCoalescingProperty(t *testing.T) {
	f := func(addrs []uint8) bool {
		runWith := func(drainAt int) int64 {
			var st stats.Stats
			w := New(sim.NewMemory(1, 64), 16, drainAt, lat, &st)
			var now int64
			for _, a := range addrs {
				res := w.Insert(now, int64(a%8)*64)
				now = res.When + 5
			}
			return st.WPQCoalesced
		}
		return runWith(12) >= runWith(2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

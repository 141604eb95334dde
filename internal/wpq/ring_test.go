package wpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// counters collects every statistic a queue and its memory report.
type counters struct {
	Occupancy                               int
	Suppressed, ByAge, ByWatermark, ByStall int64
	Coalesced, Inserted, StallCycles        int64
	MemBacklog                              int
	MemBusy                                 int64
}

func ringCounters(w *WPQ, m *sim.Memory) counters {
	return counters{w.Occupancy(), w.Suppressed, w.IssuedByAge, w.IssuedByWatermark, w.IssuedByStall,
		w.Coalesced, w.Inserted, w.StallCycles, m.Pending(), m.BusyCycles()}
}

func refCounters(w *refWPQ, m *sim.Memory) counters {
	return counters{w.Occupancy(), w.Suppressed, w.IssuedByAge, w.IssuedByWatermark, w.IssuedByStall,
		w.Coalesced, w.Inserted, w.StallCycles, m.Pending(), m.BusyCycles()}
}

// TestRingMatchesReference drives the ring and the map-and-slice
// reference with the same seeded Insert/Flush streams — every capacity
// from 1 to 64, watermarks from 1 to the capacity, time steps that
// range from stalling bursts to age-outs, OnIssue suppressing every
// third block or none — and requires identical Results, counters,
// membership and drain-event sequences after every call.
func TestRingMatchesReference(t *testing.T) {
	var total counters
	for capacity := 1; capacity <= 64; capacity++ {
		for _, drainAt := range []int{1, (capacity + 1) / 2, capacity} {
			for _, suppress := range []bool{false, true} {
				c := diffStream(t, capacity, drainAt, suppress, int64(capacity*1000+drainAt*2))
				total.Suppressed += c.Suppressed
				total.ByAge += c.ByAge
				total.ByWatermark += c.ByWatermark
				total.ByStall += c.ByStall
				total.Coalesced += c.Coalesced
				total.StallCycles += c.StallCycles
			}
		}
	}
	// The streams must reach every path the ring touches.
	if total.Suppressed == 0 || total.ByAge == 0 || total.ByWatermark == 0 ||
		total.ByStall == 0 || total.Coalesced == 0 || total.StallCycles == 0 {
		t.Fatalf("streams miss a queue path: %+v", total)
	}
}

// diffStream runs one seeded stream through both queues and returns the
// ring's final counters.
func diffStream(t *testing.T, capacity, drainAt int, suppress bool, seed int64) counters {
	t.Helper()
	name := fmt.Sprintf("cap=%d drain=%d suppress=%v seed=%d", capacity, drainAt, suppress, seed)
	rng := rand.New(rand.NewSource(seed))
	banks := 1 + rng.Intn(3)
	mRing, mRef := sim.NewMemory(banks, 64), sim.NewMemory(banks, 64)
	ring, ref := New(mRing, capacity, drainAt, lat), refNew(mRef, capacity, drainAt, lat)
	var evRing, evRef []obs.Event
	ring.Tracer = obs.Func(func(e obs.Event) { evRing = append(evRing, e) })
	ref.Tracer = obs.Func(func(e obs.Event) { evRef = append(evRef, e) })
	ring.Scheme, ref.Scheme = "s", "s"
	if suppress {
		onIssue := func(addr int64) bool { return (addr/64)%3 == 0 }
		ring.OnIssue, ref.OnIssue = onIssue, onIssue
	}
	blocks := int64(2 + rng.Intn(2*capacity+8))
	var now int64
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now += int64(rng.Intn(60000)) // long enough to age entries out
		case r < 60:
			now += int64(rng.Intn(40)) // bursts: full-queue stalls
		default:
			now += int64(rng.Intn(3000))
		}
		if rng.Intn(150) == 0 {
			ring.Flush(now)
			ref.Flush(now)
		} else {
			addr := rng.Int63n(blocks) * 64
			got, want := ring.Insert(now, addr), ref.Insert(now, addr)
			if got != want {
				t.Fatalf("%s step %d: Insert(%d, %#x) = %+v, reference %+v", name, step, now, addr, got, want)
			}
			now = max(now, got.When)
		}
		if got, want := ringCounters(ring, mRing), refCounters(ref, mRef); got != want {
			t.Fatalf("%s step %d: counters %+v, reference %+v", name, step, got, want)
		}
		for a := int64(0); a < blocks; a++ {
			if got, want := ring.Contains(a*64), ref.Contains(a*64); got != want {
				t.Fatalf("%s step %d: Contains(%#x) = %v, reference %v", name, step, a*64, got, want)
			}
		}
	}
	ring.Flush(now + 1)
	ref.Flush(now + 1)
	if len(evRing) == 0 || !reflect.DeepEqual(evRing, evRef) {
		t.Fatalf("%s: %d drain events, reference %d, or their contents differ", name, len(evRing), len(evRef))
	}
	return ringCounters(ring, mRing)
}

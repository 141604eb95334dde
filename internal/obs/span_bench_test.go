package obs

// The attribution hot path runs once per operation on every write and
// read when spans are enabled, and the nil-span disabled path is one
// branch per boundary on EVERY op always. Both must stay
// zero-allocation: the Test funcs assert the 0 (`make test` runs
// them), the benchmark reports it and feeds the micro/span_record
// BENCH.json baseline.

import "testing"

// chargeOp replays one op's worth of cursor boundaries — the same
// sequence of stage charges the controller's write path performs.
func chargeOp(sp *Span, start int64) int64 {
	sp.Add(SpanQueue, 40)
	cur := NewCursor(sp, start)
	cur.Charge(SpanFetch, start+120)
	cur.Charge(SpanCrypto, start+160)
	cur.Charge(SpanTree, start+250)
	cur.Charge(SpanWPQ, start+280)
	cur.Charge(SpanPersist, start+300)
	return sp.Total()
}

var spanSink int64

func BenchmarkSpanRecord(b *testing.B) {
	var sp Span
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Reset()
		spanSink = chargeOp(&sp, int64(i))
	}
}

func TestSpanRecordZeroAlloc(t *testing.T) {
	var sp Span
	if n := testing.AllocsPerRun(1000, func() {
		sp.Reset()
		spanSink = chargeOp(&sp, 0)
	}); n != 0 {
		t.Fatalf("enabled span path allocates %.0f per op, want 0", n)
	}
	sp.Reset()
	if got := chargeOp(&sp, 0); got != 340 {
		t.Fatalf("charge sequence totals %d cycles, want 340", got)
	}
}

// TestSpanDisabledZeroAlloc pins the always-on cost: with no span
// attached (the default for every harness / pool / crashfuzz run) the
// cursor and span methods are no-op branches and allocate nothing.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		spanSink = chargeOp(nil, 0)
	}); n != 0 {
		t.Fatalf("disabled (nil) span path allocates %.0f per op, want 0", n)
	}
	if spanSink != 0 {
		t.Fatalf("nil span accumulated %d cycles", spanSink)
	}
}

// TestFlightEmitZeroAlloc pins the black box's steady-state cost: Emit
// stores into the preallocated ring and allocates nothing, which is
// what makes an always-on recorder affordable on the persist path.
func TestFlightEmitZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(64)
	ev := Event{Kind: KindWPQDrain, Cycle: 1, Scheme: "thoth-wtsc"}
	if n := testing.AllocsPerRun(1000, func() { f.Emit(ev) }); n != 0 {
		t.Fatalf("FlightRecorder.Emit allocates %.0f per event, want 0", n)
	}
}

package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestTracerDisabledZeroAlloc proves the disabled path is free: with a
// nil tracer, emit must not construct an Event (the nil check comes
// first) and the hot persist path must not allocate for tracing.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	if c.Tracer() != nil {
		t.Fatal("tracer must default to nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.emit(obs.KindPCBFlush, 1, 2, 3, "", "")
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %v per run, want 0", allocs)
	}
}

// BenchmarkTracerDisabled measures the emit path with tracing disabled
// (the state every untraced run is in). It must report 0 allocs/op and
// a few ns/op: the nil check precedes Event construction, so a nil
// tracer costs one branch. TestTracerDisabledZeroAlloc asserts the 0.
func BenchmarkTracerDisabled(b *testing.B) {
	c, err := New(testConfig(config.ThothWTSC))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.emit(obs.KindPCBFlush, int64(i), 4096, 7, "", "")
	}
}

// BenchmarkPersistPath measures the full persist path with tracing
// disabled vs enabled (ring sink), bounding the overhead tracing adds
// when it is on — and confirming the untraced path is the baseline.
func BenchmarkPersistPath(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "ring"
		}
		b.Run(name, func(b *testing.B) {
			cfg := testConfig(config.ThothWTSC)
			if traced {
				cfg.Tracer = obs.NewRing(1 << 12)
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			blk := make([]byte, cfg.BlockSize)
			bs := int64(cfg.BlockSize)
			base := c.Layout().DataBase
			var now int64
			for i := int64(0); i < 64; i++ {
				now = c.PersistBlock(now, base+i%64*bs, blk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = c.PersistBlock(now, base+int64(i)%64*bs, blk)
			}
		})
	}
}

// TestEveryPUBEvictionPointsAtAFlush drives a Thoth controller with a
// small PUB until the eviction engine runs, then checks the causal
// ordering invariant in the trace: every PUBEvict event's Aux (the PUB
// ring address its entry came from) was previously the Addr of a
// PCBFlush event — evictions only consume blocks the PCB packed.
func TestEveryPUBEvictionPointsAtAFlush(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	cfg.PUBBytes = 4 << 10 // tiny ring so evictions trigger quickly
	ring := obs.NewRing(1 << 20)
	cfg.Tracer = ring
	c := mustNew(t, cfg)

	blk := make([]byte, cfg.BlockSize)
	bs := int64(cfg.BlockSize)
	base := c.Layout().DataBase
	var now int64
	// Many distinct pages: partials rarely merge, the PCB flushes packed
	// blocks into the PUB, and the small ring forces evictions.
	for i := int64(0); i < 4000; i++ {
		now = c.PersistBlock(now, base+(i*37%2048)*bs, blk)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow its capacity", ring.Dropped())
	}

	flushed := make(map[int64]bool)
	evicts := 0
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindPCBFlush:
			flushed[e.Addr] = true
		case obs.KindPUBEvict:
			evicts++
			if !flushed[e.Aux] {
				t.Fatalf("PUBEvict at cycle %d consumes ring addr %#x with no earlier PCBFlush", e.Cycle, e.Aux)
			}
		}
	}
	if evicts == 0 {
		t.Fatal("workload produced no PUB evictions; test exercises nothing")
	}
	if len(flushed) == 0 {
		t.Fatal("workload produced no PCB flushes")
	}
}

// TestTraceEventsCarrySchemeAndMonotoneCycles checks the common fields:
// every emitted event names the configured scheme, and cycles are
// non-negative.
func TestTraceEventsCarrySchemeAndMonotoneCycles(t *testing.T) {
	cfg := testConfig(config.ThothWTBC)
	ring := obs.NewRing(1 << 16)
	cfg.Tracer = ring
	c := mustNew(t, cfg)
	blk := make([]byte, cfg.BlockSize)
	bs := int64(cfg.BlockSize)
	base := c.Layout().DataBase
	var now int64
	for i := int64(0); i < 500; i++ {
		now = c.PersistBlock(now, base+(i*13%256)*bs, blk)
	}
	if ring.Len() == 0 {
		t.Fatal("no events emitted")
	}
	for _, e := range ring.Events() {
		if e.Scheme != "thoth-wtbc" {
			t.Fatalf("event %v carries scheme %q, want thoth-wtbc", e.Kind, e.Scheme)
		}
		if e.Cycle < 0 {
			t.Fatalf("event %v has negative cycle %d", e.Kind, e.Cycle)
		}
	}
}

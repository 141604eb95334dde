package metrics

import (
	"testing"

	"repro/internal/obs"
)

func emitAll(a *TracerAdapter, events []obs.Event) {
	for _, e := range events {
		a.Emit(e)
	}
}

func TestFromTracerKindCounters(t *testing.T) {
	r := New()
	a := FromTracer(r)
	emitAll(a, []obs.Event{
		{Kind: obs.KindTreeUpdate, Cycle: 1, Addr: 64, Aux: 3, Scheme: "s"},
		{Kind: obs.KindTreeUpdate, Cycle: 2, Addr: 128, Aux: 3, Scheme: "s"},
		{Kind: obs.KindCtrOverflow, Cycle: 3, Addr: 0, Aux: 32, Scheme: "s"},
	})
	if got := r.Counter("thoth_events_total", "", Label{"kind", "tree-update"}).Value(); got != 2 {
		t.Errorf("tree-update count = %d, want 2", got)
	}
	if got := r.Counter("thoth_events_total", "", Label{"kind", "ctr-overflow"}).Value(); got != 1 {
		t.Errorf("ctr-overflow count = %d, want 1", got)
	}
}

func TestFromTracerInvalidKind(t *testing.T) {
	r := New()
	a := FromTracer(r)
	a.Emit(obs.Event{Kind: obs.Kind(200), Cycle: 1, Scheme: "s"})
	a.Emit(obs.Event{Kind: obs.KindNone, Cycle: 1, Scheme: "s"})
	if got := r.Counter("thoth_events_invalid_total", "").Value(); got != 2 {
		t.Errorf("invalid count = %d, want 2", got)
	}
}

func TestFromTracerWPQDrain(t *testing.T) {
	r := New()
	a := FromTracer(r)
	emitAll(a, []obs.Event{
		{Kind: obs.KindWPQDrain, Cycle: 10, Addr: 64, Aux: 100, Scheme: "s", Detail: obs.DrainWatermark},
		{Kind: obs.KindWPQDrain, Cycle: 20, Addr: 128, Aux: 5, Scheme: "s", Detail: obs.DrainAge},
		{Kind: obs.KindWPQDrain, Cycle: 30, Addr: 256, Aux: 0, Scheme: "s", Detail: "mystery"},
	})
	if got := r.Counter("thoth_wpq_drain_total", "", Label{"reason", obs.DrainWatermark}).Value(); got != 1 {
		t.Errorf("watermark = %d, want 1", got)
	}
	if got := r.Counter("thoth_wpq_drain_total", "", Label{"reason", "other"}).Value(); got != 1 {
		t.Errorf("other = %d, want 1", got)
	}
	h := r.Histogram("thoth_wpq_residency_cycles", "")
	if h.Count() != 3 || h.Sum() != 105 {
		t.Errorf("residency count=%d sum=%d, want 3/105", h.Count(), h.Sum())
	}
}

func TestFromTracerPUBEntryAge(t *testing.T) {
	r := New()
	a := FromTracer(r)
	const pubAddr = 4096
	emitAll(a, []obs.Event{
		// Flush at cycle 100 lands the packed block at pubAddr.
		{Kind: obs.KindPCBFlush, Cycle: 100, Addr: pubAddr, Aux: 9, Scheme: "s"},
		// Counter half evicted at cycle 350 -> age 250, observed once.
		{Kind: obs.KindPUBEvict, Cycle: 350, Addr: 64, Aux: pubAddr, Scheme: "s", Part: "ctr", Detail: "written-back"},
		// MAC half of the same entry: counted, but no second age sample.
		{Kind: obs.KindPUBEvict, Cycle: 350, Addr: 128, Aux: pubAddr, Scheme: "s", Part: "mac", Detail: "already-evicted"},
		// Eviction from a ring address never flushed in this trace:
		// counted, no age sample.
		{Kind: obs.KindPUBEvict, Cycle: 400, Addr: 64, Aux: 8192, Scheme: "s", Part: "ctr", Detail: "stale-copy"},
	})
	h := r.Histogram("thoth_pub_entry_age_cycles", "")
	if h.Count() != 1 || h.Sum() != 250 {
		t.Errorf("age count=%d sum=%d, want 1/250", h.Count(), h.Sum())
	}
	if got := r.Counter("thoth_pub_evict_total", "", Label{"part", "ctr"}, Label{"outcome", "written-back"}).Value(); got != 1 {
		t.Errorf("ctr/written-back = %d, want 1", got)
	}
	if got := r.Counter("thoth_pub_evict_total", "", Label{"part", "mac"}, Label{"outcome", "already-evicted"}).Value(); got != 1 {
		t.Errorf("mac/already-evicted = %d, want 1", got)
	}
	fill := r.Histogram("thoth_pcb_flush_entries", "")
	if fill.Count() != 1 || fill.Sum() != 9 {
		t.Errorf("fill count=%d sum=%d, want 1/9", fill.Count(), fill.Sum())
	}
}

func TestFromTracerRecoveryPhases(t *testing.T) {
	r := New()
	a := FromTracer(r)
	emitAll(a, []obs.Event{
		{Kind: obs.KindRecoveryPhase, Cycle: 1000, Scheme: "s", Part: obs.PhaseScan, Detail: obs.PhaseBegin},
		// Per-shard spans (Aux != 0) must not produce samples.
		{Kind: obs.KindRecoveryPhase, Cycle: 1100, Aux: 1, Scheme: "s", Part: obs.PhaseMerge, Detail: obs.PhaseBegin},
		{Kind: obs.KindRecoveryPhase, Cycle: 1200, Aux: 1, Scheme: "s", Part: obs.PhaseMerge, Detail: obs.PhaseEnd},
		{Kind: obs.KindRecoveryPhase, Cycle: 1500, Scheme: "s", Part: obs.PhaseScan, Detail: obs.PhaseEnd},
		// End without begin: ignored.
		{Kind: obs.KindRecoveryPhase, Cycle: 9000, Scheme: "s", Part: obs.PhaseVerify, Detail: obs.PhaseEnd},
	})
	scan := r.Histogram("thoth_recovery_phase_cycles", "", Label{"phase", obs.PhaseScan})
	if scan.Count() != 1 || scan.Sum() != 500 {
		t.Errorf("scan count=%d sum=%d, want 1/500", scan.Count(), scan.Sum())
	}
	merge := r.Histogram("thoth_recovery_phase_cycles", "", Label{"phase", obs.PhaseMerge})
	if merge.Count() != 0 {
		t.Errorf("per-shard span produced %d whole-phase samples", merge.Count())
	}
	verify := r.Histogram("thoth_recovery_phase_cycles", "", Label{"phase", obs.PhaseVerify})
	if verify.Count() != 0 {
		t.Errorf("unpaired end produced %d samples", verify.Count())
	}
}

// TestFromTracerZeroAlloc is the adapter-path half of the CI-asserted
// hot-path guarantee: after the first observation of each address
// (steady state), Emit performs no heap allocation.
func TestFromTracerZeroAlloc(t *testing.T) {
	a := FromTracer(New())
	flush := obs.Event{Kind: obs.KindPCBFlush, Cycle: 100, Addr: 4096, Aux: 9, Scheme: "s"}
	evict := obs.Event{Kind: obs.KindPUBEvict, Cycle: 300, Addr: 64, Aux: 4096, Scheme: "s", Part: "ctr", Detail: "written-back"}
	drain := obs.Event{Kind: obs.KindWPQDrain, Cycle: 50, Addr: 64, Aux: 25, Scheme: "s", Detail: obs.DrainWatermark}
	a.Emit(flush) // seed the address map
	allocs := testing.AllocsPerRun(1000, func() {
		a.Emit(flush)
		a.Emit(evict)
		a.Emit(drain)
	})
	if allocs != 0 {
		t.Fatalf("adapter Emit allocates %v per 3 events, want 0", allocs)
	}
}

func BenchmarkFromTracer(b *testing.B) {
	a := FromTracer(New())
	flush := obs.Event{Kind: obs.KindPCBFlush, Cycle: 100, Addr: 4096, Aux: 9, Scheme: "s"}
	drain := obs.Event{Kind: obs.KindWPQDrain, Cycle: 50, Addr: 64, Aux: 25, Scheme: "s", Detail: obs.DrainWatermark}
	a.Emit(flush)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Emit(flush)
		a.Emit(drain)
	}
}

package metrics

import (
	"sync"

	"repro/internal/obs"
)

// pubEvictOutcomes are the Figure-3 outcome tags carried in
// KindPUBEvict.Detail (see the obs.KindPUBEvict doc).
var pubEvictOutcomes = []string{"written-back", "already-evicted", "clean-copy", "stale-copy"}

// TracerAdapter is an obs.Tracer that folds the controller's event
// stream into a metrics registry: one counter per event kind, outcome
// breakdowns for WPQ drains and PUB evictions, and four cycle-latency
// histograms (WPQ residency, PCB flush batch fill, PUB entry age at
// eviction, recovery per-phase cycles). Every label combination is
// registered up front, so Emit performs only switch dispatch, atomic
// adds, and int64-keyed map updates — zero heap allocations in steady
// state (BenchmarkFromTracer, CI-asserted), and safe for concurrent
// Emit (parallel recovery workers share tracers).
type TracerAdapter struct {
	events  [256]*Counter // indexed by Kind; nil beyond the declared enum
	invalid *Counter

	drainWatermark *Counter
	drainAge       *Counter
	drainStall     *Counter
	drainFlush     *Counter
	drainOther     *Counter

	evictCtr      map[string]*Counter // outcome -> counter, read-only after construction
	evictMac      map[string]*Counter
	evictCtrOther *Counter
	evictMacOther *Counter

	wpqResidency *Histogram
	pcbFill      *Histogram
	pubAge       *Histogram

	phaseCycles map[string]*Histogram // phase name -> histogram, read-only after construction

	mu         sync.Mutex
	pubFlushAt map[int64]int64  // PUB ring addr -> flush cycle (overwritten on ring reuse)
	phaseBegin map[string]int64 // phase name -> begin cycle (whole-phase spans only)
}

// FromTracer registers the derived families in reg and returns the
// adapter. Pass it as (or inside an obs.Multi as part of) Config.Tracer;
// every existing emission site then feeds the registry with no new
// instrumentation calls. Registration is idempotent, so an adapter may
// share a registry with the controller's native Config.Metrics hooks.
func FromTracer(reg *Registry) *TracerAdapter {
	a := &TracerAdapter{
		invalid: reg.Counter("thoth_events_invalid_total",
			"Events dropped because their Kind is not a declared obs.Kind."),
		wpqResidency: reg.Histogram("thoth_wpq_residency_cycles",
			"Cycles a write spent pending in the WPQ before issue."),
		pcbFill: reg.Histogram("thoth_pcb_flush_entries",
			"Partial-update entries packed into each PCB block flushed to the PUB."),
		pubAge: reg.Histogram("thoth_pub_entry_age_cycles",
			"Cycles between a packed block entering the PUB and its eviction."),
		evictCtr:    make(map[string]*Counter, len(pubEvictOutcomes)),
		evictMac:    make(map[string]*Counter, len(pubEvictOutcomes)),
		phaseCycles: make(map[string]*Histogram, 4),
		pubFlushAt:  make(map[int64]int64),
		phaseBegin:  make(map[string]int64),
	}
	for _, k := range obs.Kinds() {
		a.events[k] = reg.Counter("thoth_events_total",
			"Controller events by kind.", Label{"kind", k.String()})
	}
	reason := func(r string) *Counter {
		return reg.Counter("thoth_wpq_drain_total",
			"WPQ drains by reason.", Label{"reason", r})
	}
	a.drainWatermark = reason(obs.DrainWatermark)
	a.drainAge = reason(obs.DrainAge)
	a.drainStall = reason(obs.DrainStall)
	a.drainFlush = reason(obs.DrainFlush)
	a.drainOther = reason("other")
	evict := func(part, outcome string) *Counter {
		return reg.Counter("thoth_pub_evict_total",
			"PUB evictions by half and Figure-3 outcome.",
			Label{"part", part}, Label{"outcome", outcome})
	}
	for _, o := range pubEvictOutcomes {
		a.evictCtr[o] = evict("ctr", o)
		a.evictMac[o] = evict("mac", o)
	}
	a.evictCtrOther = evict("ctr", "other")
	a.evictMacOther = evict("mac", "other")
	for _, phase := range []string{obs.PhaseScan, obs.PhaseMerge, obs.PhaseRebuild, obs.PhaseVerify} {
		a.phaseCycles[phase] = reg.Histogram("thoth_recovery_phase_cycles",
			"Modeled cycles per recovery phase (whole-phase spans).",
			Label{"phase", phase})
	}
	return a
}

// Emit folds one event into the registry.
func (a *TracerAdapter) Emit(e obs.Event) {
	c := a.events[e.Kind]
	if c == nil {
		a.invalid.Inc()
		return
	}
	c.Inc()
	switch e.Kind {
	case obs.KindPCBFlush:
		a.pcbFill.Observe(e.Aux)
		a.mu.Lock()
		a.pubFlushAt[e.Addr] = e.Cycle
		a.mu.Unlock()
	case obs.KindPUBEvict:
		a.evictCounter(e.Part, e.Detail).Inc()
		// Age once per packed entry, on the counter half (every entry
		// has one; counting the MAC half too would double-observe).
		if e.Part == "ctr" {
			a.mu.Lock()
			if at, ok := a.pubFlushAt[e.Aux]; ok {
				a.mu.Unlock()
				a.pubAge.Observe(e.Cycle - at)
				return
			}
			a.mu.Unlock()
		}
	case obs.KindWPQDrain:
		a.drainCounter(e.Detail).Inc()
		a.wpqResidency.Observe(e.Aux)
	case obs.KindRecoveryPhase:
		if e.Aux != 0 {
			return // per-shard span: the whole-phase span covers it
		}
		h := a.phaseCycles[e.Part]
		if h == nil {
			return
		}
		switch e.Detail {
		case obs.PhaseBegin:
			a.mu.Lock()
			a.phaseBegin[e.Part] = e.Cycle
			a.mu.Unlock()
		case obs.PhaseEnd:
			a.mu.Lock()
			begin, ok := a.phaseBegin[e.Part]
			a.mu.Unlock()
			if ok {
				h.Observe(e.Cycle - begin)
			}
		}
	}
}

// drainCounter maps a drain reason to its pre-registered counter.
func (a *TracerAdapter) drainCounter(reason string) *Counter {
	switch reason {
	case obs.DrainWatermark:
		return a.drainWatermark
	case obs.DrainAge:
		return a.drainAge
	case obs.DrainStall:
		return a.drainStall
	case obs.DrainFlush:
		return a.drainFlush
	}
	return a.drainOther
}

// evictCounter maps a PUB eviction (part, outcome) to its
// pre-registered counter.
func (a *TracerAdapter) evictCounter(part, outcome string) *Counter {
	m, other := a.evictCtr, a.evictCtrOther
	if part == "mac" {
		m, other = a.evictMac, a.evictMacOther
	}
	if c, ok := m[outcome]; ok {
		return c
	}
	return other
}

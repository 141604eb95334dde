package obs

import (
	"bufio"
	"io"
)

// DefaultFlightEvents is the per-controller flight-recorder capacity:
// enough to cover the metadata traffic of the last few thousand ops
// without measurable steady-state cost.
const DefaultFlightEvents = 4096

// FlightRecorder is the controller's always-on black box: a bounded
// ring of the most recent events that Crash/CrashShards snapshot and
// dump to JSONL alongside the crash image, so every crashfuzz or pool
// failure ships the event history that led up to it.
//
// Unlike the opt-in config Tracer, the recorder runs even when tracing
// is disabled. It is a Ring: Emit stores into a preallocated buffer
// under a mutex — Event is a flat value struct, so recording allocates
// nothing — and an idle recorder costs nothing at all (no timers, no
// goroutines).
type FlightRecorder = Ring

// NewFlightRecorder returns a recorder keeping up to capacity events;
// capacity < 1 selects DefaultFlightEvents.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = DefaultFlightEvents
	}
	return NewRing(capacity)
}

// Snapshot returns an immutable copy of the ring's state: the retained
// events in emission order plus the drop accounting. Crash paths call
// this at the crash point so the record is frozen even if the recorder
// keeps running.
func (r *Ring) Snapshot() FlightRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return FlightRecord{Events: r.retained(), Dropped: r.dropped, Count: r.count}
}

// FlightRecord is a frozen flight-recorder snapshot: the event tail
// retained at the moment of a crash or shutdown.
type FlightRecord struct {
	// Events are the retained events, oldest first.
	Events []Event
	// Dropped is how many older events the ring had overwritten.
	Dropped int64
	// Count is the total events recorded over the recorder's lifetime.
	Count int64
}

// WriteJSONL writes the record as a JSONL event stream — the same
// schema JSONL emits, so the dump decodes through DecodeJSONL and
// replays through metrics.FromTracer (cmd/tracemetrics) like any
// recorded trace.
func (r FlightRecord) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Events {
		if err := writeJSONLine(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package core

// The crash flight recorder is always on: with no Tracer configured the
// controller still retains the most recent events, and a Crash's
// snapshot is a valid JSONL trace that replays through the same
// metrics.FromTracer adapter as any recorded trace.

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// runToCrash persists enough traffic to generate WPQ drains and PUB
// activity, then crashes and returns the flight record.
func runToCrash(t *testing.T, cfg config.Config) obs.FlightRecord {
	t.Helper()
	c := mustNew(t, cfg)
	var now int64
	for i := 0; i < 300; i++ {
		addr := 4096 + int64(i%64)*int64(cfg.BlockSize)
		now = c.PersistBlock(now, addr, blockOf(c, byte(i)))
	}
	if err := c.Crash(now); err != nil {
		t.Fatalf("crash: %v", err)
	}
	return c.FlightRecord()
}

func TestFlightRecorderAlwaysOn(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	if cfg.Tracer != nil {
		t.Fatal("test premise: no tracer configured")
	}
	rec := runToCrash(t, cfg)
	if len(rec.Events) == 0 {
		t.Fatal("flight recorder empty after a traced-workload crash")
	}
	if rec.Count < int64(len(rec.Events)) {
		t.Fatalf("count %d < retained %d", rec.Count, len(rec.Events))
	}
	// Events are retained in emission order, which is not cycle-sorted
	// (WPQ drains are emitted at issue time stamped with their drain
	// cycle); the schema only requires non-negative cycles.
	for i, e := range rec.Events {
		if e.Cycle < 0 {
			t.Fatalf("event %d has negative cycle %d", i, e.Cycle)
		}
	}
}

// TestFlightRecordReplaysThroughFromTracer closes the loop the crash
// tooling relies on: dump the black box as JSONL, then decode it
// (validating the schema) through metrics.FromTracer — the per-kind
// event counters must account for every dumped event, with none
// rejected as invalid.
func TestFlightRecordReplaysThroughFromTracer(t *testing.T) {
	rec := runToCrash(t, testConfig(config.ThothWTSC))

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	ad := metrics.FromTracer(reg)
	n, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()), ad.Emit)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(rec.Events) {
		t.Fatalf("replayed %d events, want %d", n, len(rec.Events))
	}
	var total int64
	for _, k := range obs.Kinds() {
		total += reg.Counter("thoth_events_total", "Controller events by kind.",
			metrics.Label{Key: "kind", Value: k.String()}).Value()
	}
	if total != int64(len(rec.Events)) {
		t.Fatalf("event counters sum to %d, want %d", total, len(rec.Events))
	}
	if inv := reg.Counter("thoth_events_invalid_total",
		"Events dropped because their Kind is not a declared obs.Kind.").Value(); inv != 0 {
		t.Fatalf("%d events rejected as invalid on replay", inv)
	}
}

// TestFlightRecorderSeesTracerlessWPQDrains pins the fan-out wiring:
// WPQ drain events reach the black box even with no tracer installed.
func TestFlightRecorderSeesTracerlessWPQDrains(t *testing.T) {
	rec := runToCrash(t, testConfig(config.ThothWTSC))
	for _, e := range rec.Events {
		if e.Kind == obs.KindWPQDrain {
			return
		}
	}
	t.Fatal("no WPQ drain events in the flight record")
}

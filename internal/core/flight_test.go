package core

// The crash flight recorder is always on: with no Tracer configured the
// controller still retains the most recent events, and a Crash's
// snapshot is a valid JSONL trace that decodes like any recorded trace.

import (
	"bytes"
	"testing"

	"repro/internal/config"
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

// TestFlightRecordReplays closes the loop the crash tooling relies on:
// dump the black box as JSONL, then decode it (validating the schema)
// — every dumped event must come back, in order and unchanged, with a
// declared kind.
func TestFlightRecordReplays(t *testing.T) {
	rec := runToCrash(t, testConfig(config.ThothWTSC))

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	declared := make(map[obs.Kind]bool)
	for _, k := range obs.Kinds() {
		declared[k] = true
	}
	var got []obs.Event
	n, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()), func(e obs.Event) {
		if !declared[e.Kind] {
			t.Errorf("replayed event %d has undeclared kind %d", len(got), e.Kind)
		}
		got = append(got, e)
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(rec.Events) || len(got) != n {
		t.Fatalf("replayed %d events (%d delivered), want %d", n, len(got), len(rec.Events))
	}
	for i := range got {
		if got[i] != rec.Events[i] {
			t.Fatalf("replayed event %d = %+v, dumped %+v", i, got[i], rec.Events[i])
		}
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

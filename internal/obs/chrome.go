package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Chrome exports events in the Chrome trace_event JSON array format, so
// a run opens directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Every Event becomes an instant event ("ph":"i") on
// a per-kind track (tid = kind), with the modeled cycle converted to
// microseconds at the configured core clock; thread_name metadata gives
// each track its kind name. Close writes the closing bracket — the file
// is well-formed JSON only after Close. Safe for concurrent Emit.
type Chrome struct {
	mu     sync.Mutex
	w      *bufio.Writer
	cpuGHz float64
	elems  int64        // array elements written (metadata + events)
	count  int64        // events only
	named  map[int]bool // recovery tracks already given thread_name metadata
	closed bool
	err    error
}

// NewChrome returns a Chrome exporter writing to w, converting cycles
// to wall-clock microseconds at cpuGHz (values <= 0 fall back to 1 GHz,
// i.e. 1000 cycles per displayed microsecond).
func NewChrome(w io.Writer, cpuGHz float64) *Chrome {
	if cpuGHz <= 0 {
		cpuGHz = 1
	}
	c := &Chrome{w: bufio.NewWriter(w), cpuGHz: cpuGHz}
	c.w.WriteString("[")
	// Name one track per kind up front so the viewer shows stable rows.
	for k := Kind(1); k < numKinds; k++ {
		c.elem(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			int(k), strconv.Quote(k.String())))
	}
	return c
}

// elem writes one array element with the separating comma. Callers hold
// the mutex (or are the constructor).
func (c *Chrome) elem(s string) {
	if c.elems > 0 {
		c.w.WriteString(",")
	}
	c.w.WriteString("\n")
	c.w.WriteString(s)
	c.elems++
}

// Emit appends one instant event. Write errors are sticky and reported
// by Close.
func (c *Chrome) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	ts := float64(e.Cycle) / (c.cpuGHz * 1e3) // cycles -> microseconds
	if e.Kind == KindRecoveryPhase && (e.Detail == PhaseBegin || e.Detail == PhaseEnd) {
		c.phaseElem(e, ts)
		c.count++
		return
	}
	c.elem(fmt.Sprintf(`{"name":%s,"cat":"thoth","ph":"i","s":"t","pid":0,"tid":%d,"ts":%s,"args":{"addr":"0x%x","aux":%d,"scheme":%s,"part":%s,"detail":%s}}`,
		strconv.Quote(e.Kind.String()), int(e.Kind),
		strconv.FormatFloat(ts, 'f', 3, 64),
		e.Addr, e.Aux, strconv.Quote(e.Scheme), strconv.Quote(e.Part), strconv.Quote(e.Detail)))
	c.count++
}

// phaseElem renders a recovery-phase boundary (KindRecoveryPhase with a
// PhaseBegin/PhaseEnd detail) as one half of a duration slice: "B"/"E"
// pairs named after the phase, on a dedicated recovery track per shard
// (tid numKinds+Aux — whole-engine spans at Aux 0, shard s at Aux s+1).
// Track name metadata is written lazily on first use so traces without
// recovery activity keep the exact preamble they always had. Callers
// hold the mutex.
func (c *Chrome) phaseElem(e Event, ts float64) {
	tid := int(numKinds) + int(e.Aux)
	if !c.named[tid] {
		if c.named == nil {
			c.named = make(map[int]bool)
		}
		c.named[tid] = true
		label := "recovery"
		if e.Aux > 0 {
			label = fmt.Sprintf("recovery shard %d", e.Aux-1)
		}
		c.elem(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tid, strconv.Quote(label)))
	}
	ph := "B"
	if e.Detail == PhaseEnd {
		ph = "E"
	}
	c.elem(fmt.Sprintf(`{"name":%s,"cat":"thoth","ph":%q,"pid":0,"tid":%d,"ts":%s,"args":{"scheme":%s}}`,
		strconv.Quote(e.Part), ph, tid,
		strconv.FormatFloat(ts, 'f', 3, 64), strconv.Quote(e.Scheme)))
}

// Close writes the closing bracket and flushes; the underlying writer
// stays open. Emit after Close is a no-op.
func (c *Chrome) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	if c.err != nil {
		return c.err
	}
	c.w.WriteString("\n]\n")
	c.err = c.w.Flush()
	return c.err
}

// Count returns how many events were emitted.
func (c *Chrome) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// ValidateChrome checks that r holds a well-formed trace_event JSON
// array: every element must carry the ph/pid/tid fields, and every
// non-metadata element a non-negative timestamp and a known name — the
// event-kind name for instant events, a recovery phase name for the
// "B"/"E" duration pairs the recovery tracks use. It returns the number of events validated.
func ValidateChrome(r io.Reader) (int, error) {
	var arr []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Ts   *float64 `json:"ts"`
		Pid  *int     `json:"pid"`
		Tid  *int     `json:"tid"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&arr); err != nil {
		return 0, fmt.Errorf("not a trace_event array: %w", err)
	}
	n := 0
	for i, ev := range arr {
		if ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			return n, fmt.Errorf("element %d: missing ph/pid/tid", i)
		}
		if ev.Ph == "M" {
			continue
		}
		if ev.Ph == "B" || ev.Ph == "E" {
			if !isPhaseName(ev.Name) {
				return n, fmt.Errorf("element %d: unknown phase name %q", i, ev.Name)
			}
		} else if _, ok := KindByName(ev.Name); !ok {
			return n, fmt.Errorf("element %d: unknown event name %q", i, ev.Name)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return n, fmt.Errorf("element %d: missing or negative ts", i)
		}
		n++
	}
	return n, nil
}

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// JSONL streams events as one JSON object per line:
//
//	{"kind":"pcb-flush","cycle":812,"addr":1049088,"scheme":"thoth-wtsc","aux":9}
//
// Required fields: kind (a Kind.String name), cycle (>= 0), addr, and
// scheme. The optional part, detail, and aux fields are omitted when
// empty/zero. The stream is append-only — every prefix of whole lines
// is a parseable trace. Safe for concurrent Emit.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	count int64
	err   error
}

// NewJSONL returns a JSONL tracer writing to w. Call Close (or Flush)
// before reading the output; the underlying writer is never closed.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Emit appends one line. Write errors are sticky and reported by Close.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	if j.err == nil {
		j.err = writeJSONLine(j.w, e)
		j.count++
	}
	j.mu.Unlock()
}

// Flush pushes buffered lines to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Close flushes; the underlying writer stays open (and usable).
func (j *JSONL) Close() error { return j.Flush() }

// Count returns how many events were emitted.
func (j *JSONL) Count() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// writeJSONLine hand-rolls the encoding: field order is fixed (stable
// output for golden files and diffs) and no intermediate map or struct
// is marshaled per event.
func writeJSONLine(w *bufio.Writer, e Event) error {
	var buf [32]byte
	w.WriteString(`{"kind":`)
	w.WriteString(strconv.Quote(e.Kind.String()))
	w.WriteString(`,"cycle":`)
	w.Write(strconv.AppendInt(buf[:0], e.Cycle, 10))
	w.WriteString(`,"addr":`)
	w.Write(strconv.AppendInt(buf[:0], e.Addr, 10))
	w.WriteString(`,"scheme":`)
	w.WriteString(strconv.Quote(e.Scheme))
	if e.Part != "" {
		w.WriteString(`,"part":`)
		w.WriteString(strconv.Quote(e.Part))
	}
	if e.Detail != "" {
		w.WriteString(`,"detail":`)
		w.WriteString(strconv.Quote(e.Detail))
	}
	if e.Aux != 0 {
		w.WriteString(`,"aux":`)
		w.Write(strconv.AppendInt(buf[:0], e.Aux, 10))
	}
	_, err := w.WriteString("}\n")
	return err
}

// DecodeJSONL parses a JSONL event stream (as written by JSONL) and
// calls fn for each decoded Event. It enforces the schema — every line
// a JSON object with the required fields and no unknown ones, a kind
// name that KindByName resolves (so events with an undeclared Kind are
// rejected, never silently replayed), integer cycle/addr/aux and string
// scheme/part/detail values, a non-negative cycle and a non-empty
// scheme — and stops at the first violation, returning the number of
// events delivered and the error (with its 1-based line number).
// cmd/tracemetrics replays a trace into a metrics registry with it,
// and so validates the trace.
func DecodeJSONL(r io.Reader, fn func(Event)) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n := 0
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var raw struct {
			Kind   string `json:"kind"`
			Cycle  int64  `json:"cycle"`
			Addr   int64  `json:"addr"`
			Scheme string `json:"scheme"`
			Part   string `json:"part"`
			Detail string `json:"detail"`
			Aux    int64  `json:"aux"`
		}
		// Field-set check first (encoding/json ignores unknown fields).
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return n, fmt.Errorf("line %d: not a JSON object: %w", line, err)
		}
		for name, required := range jsonlFields {
			if _, ok := obj[name]; required && !ok {
				return n, fmt.Errorf("line %d: missing required field %q", line, name)
			}
		}
		for name := range obj {
			if _, ok := jsonlFields[name]; !ok {
				return n, fmt.Errorf("line %d: unknown field %q", line, name)
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return n, fmt.Errorf("line %d: %w", line, err)
		}
		k, ok := KindByName(raw.Kind)
		if !ok {
			return n, fmt.Errorf("line %d: unknown kind %q", line, raw.Kind)
		}
		if raw.Cycle < 0 {
			return n, fmt.Errorf("line %d: negative cycle %d", line, raw.Cycle)
		}
		if raw.Scheme == "" {
			return n, fmt.Errorf("line %d: empty scheme", line)
		}
		fn(Event{
			Kind:   k,
			Cycle:  raw.Cycle,
			Addr:   raw.Addr,
			Aux:    raw.Aux,
			Scheme: raw.Scheme,
			Part:   raw.Part,
			Detail: raw.Detail,
		})
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// jsonlFields is the schema: field name -> required.
var jsonlFields = map[string]bool{
	"kind":   true,
	"cycle":  true,
	"addr":   true,
	"scheme": true,
	"part":   false,
	"detail": false,
	"aux":    false,
}

// Package metrics is a dependency-free metrics layer for the secure
// memory controller: a registry of counters, gauges and fixed-bucket
// log2 histograms, designed so the hot simulation loop can feed it with
// zero heap allocations (BenchmarkHistogramObserve and
// BenchmarkFromTracer are CI-asserted at 0 allocs/op, like the tracer's
// disabled path).
//
// The aggregate counters in internal/stats answer "how much" for one
// run and the events in internal/obs answer "when"; this package
// answers "how is it distributed": the distribution of PCB batch fill,
// PUB entry age at eviction, WPQ residency or write critical-path
// cycles. Every metric is atomic, so a registry may be read while the
// simulation writes to it.
//
// Two expositions are provided: Prometheus text format (WriteProm,
// golden-tested and validated by ValidateProm) and direct programmatic
// access (Value/Snapshot). cmd/tracemetrics rebuilds the event-derived
// families from a recorded JSONL trace.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key/value pair attached to a metric at
// registration time. Labels distinguish series within a family (e.g.
// thoth_events_total{kind="pcb-flush"}).
type Label struct {
	Key, Value string
}

// metricType is the Prometheus family type.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one registered metric instance: a family name plus a
// rendered label set and the value container.
type series struct {
	labels string // rendered `{k="v",...}`, "" when unlabeled
	value  any    // *Counter, *Gauge or *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
	byLbl  map[string]*series
}

// Registry holds a set of metric families. All registration methods are
// idempotent: asking for an existing (name, labels) pair returns the
// same metric instance, so independent components (the tracer adapter,
// the controller's native hooks, tests) can share one registry without
// coordination. Registration takes a lock; reading and updating metric
// values is lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_][a-zA-Z0-9_]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline only. Go's %q
// must not be used here — it escapes tabs, control bytes and non-ASCII
// runes into sequences the format does not define.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// renderLabels produces the canonical label string for a label set:
// keys sorted, values quoted. Registration-time only; never on the hot
// path.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register resolves (or creates) the series for (name, labels) with the
// given type, enforcing that a family keeps one type and one help text.
func (r *Registry) register(name, help string, typ metricType, labels []Label, mk func() any) any {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLbl: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	s := f.byLbl[lbl]
	if s == nil {
		s = &series{labels: lbl, value: mk()}
		f.byLbl[lbl] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	return s.value
}

// Counter returns the counter for (name, labels), registering it on
// first use. Counters only go up.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, typeCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for (name, labels), registering it on first
// use. Gauges hold the latest sampled value.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, typeGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for (name, labels), registering it on
// first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, typeHistogram, labels, func() any { return &Histogram{} }).(*Histogram)
}

// each calls fn for every family in name order, then for every series
// in label order — the canonical exposition order.
func (r *Registry) each(fn func(f *family, s *series)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		for _, s := range f.series {
			fn(f, s)
		}
	}
}

// Counter is a monotonically increasing int64. Safe for concurrent use;
// Inc/Add never allocate.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 sample. Safe for concurrent use; Set/Add
// never allocate.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Package loadgen is the open-loop multi-tenant traffic generator: many
// simulated tenants, each with a private seeded arrival process and
// key-space pattern, multiplexed over one Target (a single controller or
// a sharded engine.Pool). Arrivals are independent of completions — the
// defining property of an open loop — so when the controller falls
// behind, queueing delay shows up in the latency distribution instead of
// silently throttling the offered load. Latencies are modeled cycles
// (completion − arrival = queueing delay + service) and flow into
// internal/metrics histograms: an aggregate read/write family plus one
// series per tenant, rendered by metrics.WriteProm and summarized as
// P50/P95/P99 by Summary. Everything derives from the scenario seed:
// same seed, same event stream, same histograms.
package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/recovery"
)

// OpKind distinguishes generated operations.
type OpKind uint8

const (
	// OpWrite persists one block (Len bytes at Addr).
	OpWrite OpKind = iota
	// OpRead reads Len bytes at Addr.
	OpRead
)

// String names the kind for reports.
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Op is one generated operation. GenOp fills ops in place (no per-op
// allocation); ExecOp executes them, so a recorded stream can also be
// replayed against another target.
type Op struct {
	Tenant  int
	Seq     int64 // global issue sequence, salts the write payload
	Arrival int64 // modeled arrival cycle
	Kind    OpKind
	Addr    int64 // absolute data-region offset (inside the tenant's partition)
	Len     int
}

// FillPayload derives the written bytes of op (Seq, Addr) into dst. It
// depends only on the op itself, so replaying a recorded stream through
// another system writes identical data — the closed-loop differential
// relies on it.
func FillPayload(dst []byte, seq, addr int64) {
	s := byte(seq*131) ^ byte(addr>>7)
	for i := range dst {
		dst[i] = s ^ byte(i*7)
	}
}

// Options tunes driver bookkeeping beyond the scenario itself.
type Options struct {
	// TrackGolden records the final acknowledged payload of every
	// written block; the crash-under-load test reads them back after
	// recovery.
	TrackGolden bool
	// RecordLatencies keeps every raw (tenant, kind, latency) triple so
	// CheckQuantiles can recompute exact percentiles and pin the
	// histogram estimates to within one bucket.
	RecordLatencies bool
	// CollectOps appends every generated op to an in-memory trace
	// (Ops()), for replay through another driver or system.
	CollectOps bool
	// Attribution decomposes every op's latency into pipeline-stage
	// cycles (queue, fetch, crypto, tree, wpq, persist) via the target's
	// SpanTarget interface: per-stage thoth_op_stage_cycles histograms,
	// plus the aggregate and per-tenant Attribution report. ExecOp
	// enforces conservation — stage cycles must sum exactly to
	// completion − arrival — and fails loudly on any leak. Requires a
	// target implementing SpanTarget.
	Attribution bool
}

// tenant is one simulated client: arrival process, key chooser, op-mix
// randomness, a disjoint partition, and a latency histogram series.
type tenant struct {
	arr     arrivalProc
	keys    keyPicker
	r       rng // op mix + key draws
	baseBlk int64
	hist    *metrics.Histogram
	reads   int64
	writes  int64
	// stages accumulates the tenant's per-stage attribution cycles
	// (Options.Attribution).
	stages [obs.NumStages]int64
}

// Driver generates and executes one scenario against one target. Not
// safe for concurrent use; the metrics registry it feeds is.
type Driver struct {
	scn  Scenario
	tgt  Target
	bs   int64
	opts Options

	tenants []tenant
	heap    []int32 // tenant indices ordered by next arrival (ties: lowest id)

	issued  int64
	maxDone int64
	minLat  int64

	reg       *metrics.Registry
	histRead  *metrics.Histogram
	histWrite *metrics.Histogram
	opsRead   *metrics.Counter
	opsWrite  *metrics.Counter
	gCycle    *metrics.Gauge

	// Attribution state (Options.Attribution): the span-capable view of
	// the target, the reusable per-op span, the per-stage histogram
	// handles, and the aggregate stage totals.
	spanTgt   SpanTarget
	span      obs.Span
	histStage [obs.NumStages]*metrics.Histogram
	stageAgg  [obs.NumStages]int64

	sha  hash.Hash
	hbuf [33]byte

	wbuf []byte
	rbuf []byte

	golden  map[int64][]byte
	rawLat  []int64
	rawTen  []int32
	rawKind []uint8
	ops     []Op
}

// NewDriver builds a driver for the scenario over the target. cfg is the
// machine configuration the target was built from (the driver needs its
// metadata geometry for the thrash stride). reg receives the
// thoth_loadgen_* metric families; nil creates a private registry.
func NewDriver(scn Scenario, tgt Target, cfg config.Config, reg *metrics.Registry, opts Options) (*Driver, error) {
	if err := scn.validate(); err != nil {
		return nil, err
	}
	bs := int64(tgt.BlockSize())
	totalBlk := tgt.DataSize() / bs
	perTenant := totalBlk / int64(scn.Tenants)
	if perTenant < 1 {
		return nil, fmt.Errorf("loadgen: %d tenants cannot partition %d blocks", scn.Tenants, totalBlk)
	}
	if reg == nil {
		reg = metrics.New()
	}
	// Strided keys step one metadata group plus one block, so
	// consecutive ops land in distinct metadata groups.
	stride := recovery.GroupBlocks(cfg) + 1
	var zipf *zipfTable
	if scn.Keys.Kind == KeysZipfian {
		n := perTenant
		if n > maxZipfDomain {
			n = maxZipfDomain
		}
		zipf = newZipfTable(int(n), scn.Keys.ZipfS)
	}
	d := &Driver{
		scn:    scn,
		tgt:    tgt,
		bs:     bs,
		opts:   opts,
		minLat: math.MaxInt64,
		reg:    reg,
		sha:    sha256.New(),
		wbuf:   make([]byte, bs),
		rbuf:   make([]byte, bs),
	}
	d.histRead = reg.Histogram("thoth_loadgen_latency_cycles",
		"Open-loop op latency (completion - arrival) in modeled cycles.",
		metrics.Label{Key: "op", Value: "read"})
	d.histWrite = reg.Histogram("thoth_loadgen_latency_cycles",
		"Open-loop op latency (completion - arrival) in modeled cycles.",
		metrics.Label{Key: "op", Value: "write"})
	d.opsRead = reg.Counter("thoth_loadgen_ops_total",
		"Operations completed by the load generator.",
		metrics.Label{Key: "op", Value: "read"})
	d.opsWrite = reg.Counter("thoth_loadgen_ops_total",
		"Operations completed by the load generator.",
		metrics.Label{Key: "op", Value: "write"})
	d.gCycle = reg.Gauge("thoth_loadgen_cycle",
		"Latest modeled completion cycle observed by the load generator.")
	if opts.Attribution {
		st, ok := tgt.(SpanTarget)
		if !ok {
			return nil, fmt.Errorf("loadgen: Options.Attribution requires a SpanTarget, got %T", tgt)
		}
		d.spanTgt = st
		for _, stage := range obs.Stages() {
			d.histStage[stage] = reg.Histogram("thoth_op_stage_cycles",
				"Per-op cycles attributed to each pipeline stage (stages sum to op latency).",
				metrics.Label{Key: "stage", Value: stage.String()})
		}
	}

	master := newRNG(scn.Seed)
	d.tenants = make([]tenant, scn.Tenants)
	d.heap = make([]int32, scn.Tenants)
	for i := range d.tenants {
		arrSeed := int64(master.Uint64())
		mixSeed := int64(master.Uint64())
		t := &d.tenants[i]
		t.arr = newArrivalProc(scn.Arrival, scn.Tenants, i, arrSeed)
		t.keys = newKeyPicker(scn.Keys, zipf, perTenant, stride)
		t.r = newRNG(mixSeed)
		t.baseBlk = int64(i) * perTenant
		t.hist = reg.Histogram("thoth_loadgen_tenant_latency_cycles",
			"Per-tenant open-loop op latency in modeled cycles.",
			metrics.Label{Key: "tenant", Value: fmt.Sprintf("%04d", i)})
		d.heap[i] = int32(i)
	}
	sort.Slice(d.heap, func(a, b int) bool { return d.heapLess(d.heap[a], d.heap[b]) })
	if opts.TrackGolden {
		d.golden = make(map[int64][]byte)
	}
	return d, nil
}

// heapLess orders tenants by next arrival, ties broken by tenant id so
// the event stream is deterministic.
func (d *Driver) heapLess(a, b int32) bool {
	na, nb := d.tenants[a].arr.next, d.tenants[b].arr.next
	if na != nb {
		return na < nb
	}
	return a < b
}

// siftDown restores the heap property from index i.
func (d *Driver) siftDown(i int) {
	n := len(d.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && d.heapLess(d.heap[l], d.heap[min]) {
			min = l
		}
		if r < n && d.heapLess(d.heap[r], d.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		d.heap[i], d.heap[min] = d.heap[min], d.heap[i]
		i = min
	}
}

// GenOp fills op with the next scheduled operation and advances the
// schedule. It returns false when the scenario budget (Ops) or horizon
// (DurationCycles) is exhausted. It never allocates (the zero-alloc
// micro benchmark pins this) unless Options.CollectOps is on.
func (d *Driver) GenOp(op *Op) bool {
	if d.scn.Ops > 0 && d.issued >= d.scn.Ops {
		return false
	}
	i := d.heap[0]
	t := &d.tenants[i]
	if d.scn.DurationCycles > 0 && t.arr.next > d.scn.DurationCycles {
		return false
	}
	op.Tenant = int(i)
	op.Seq = d.issued
	op.Arrival = t.arr.next
	if t.r.Intn(100) < d.scn.ReadPercent {
		op.Kind = OpRead
	} else {
		op.Kind = OpWrite
	}
	op.Addr = (t.baseBlk + t.keys.pick(&t.r)) * d.bs
	op.Len = int(d.bs)
	d.issued++
	t.arr.advance()
	d.siftDown(0)

	// Fold the op into the event-stream hash (the determinism pin).
	b := d.hbuf[:]
	binary.LittleEndian.PutUint32(b[0:], uint32(op.Tenant))
	binary.LittleEndian.PutUint64(b[4:], uint64(op.Seq))
	binary.LittleEndian.PutUint64(b[12:], uint64(op.Arrival))
	b[20] = byte(op.Kind)
	binary.LittleEndian.PutUint64(b[21:], uint64(op.Addr))
	binary.LittleEndian.PutUint32(b[29:], uint32(op.Len))
	d.sha.Write(b)

	if d.opts.CollectOps {
		d.ops = append(d.ops, *op)
	}
	return true
}

// ExecOp executes one operation against the target and folds its
// open-loop latency into the histograms.
func (d *Driver) ExecOp(op *Op) error {
	t := &d.tenants[op.Tenant]
	var done int64
	var err error
	var h *metrics.Histogram
	if op.Kind == OpRead {
		if len(d.rbuf) < op.Len {
			d.rbuf = make([]byte, op.Len)
		}
		if d.spanTgt != nil {
			done, err = d.spanTgt.ReadSpan(op.Arrival, op.Addr, d.rbuf[:op.Len], &d.span)
		} else {
			done, err = d.tgt.Read(op.Arrival, op.Addr, d.rbuf[:op.Len])
		}
		if err != nil {
			return fmt.Errorf("loadgen: tenant %d read [%d,+%d): %w", op.Tenant, op.Addr, op.Len, err)
		}
		t.reads++
		d.opsRead.Inc()
		h = d.histRead
	} else {
		if len(d.wbuf) < op.Len {
			d.wbuf = make([]byte, op.Len)
		}
		FillPayload(d.wbuf[:op.Len], op.Seq, op.Addr)
		if d.spanTgt != nil {
			done, err = d.spanTgt.WriteSpan(op.Arrival, op.Addr, d.wbuf[:op.Len], &d.span)
		} else {
			done, err = d.tgt.Write(op.Arrival, op.Addr, d.wbuf[:op.Len])
		}
		if err != nil {
			return fmt.Errorf("loadgen: tenant %d write [%d,+%d): %w", op.Tenant, op.Addr, op.Len, err)
		}
		if d.golden != nil {
			g, ok := d.golden[op.Addr]
			if !ok {
				g = make([]byte, op.Len)
				d.golden[op.Addr] = g
			}
			copy(g, d.wbuf[:op.Len])
		}
		t.writes++
		d.opsWrite.Inc()
		h = d.histWrite
	}
	lat := done - op.Arrival
	if lat < d.minLat {
		d.minLat = lat
	}
	if d.spanTgt != nil {
		if got := d.span.Total(); got != lat {
			return fmt.Errorf("loadgen: tenant %d %s [%d,+%d): stage cycles %d do not sum to latency %d (leak %d)",
				op.Tenant, op.Kind, op.Addr, op.Len, got, lat, lat-got)
		}
		for _, st := range obs.Stages() {
			v := d.span.Stages[st]
			d.histStage[st].Observe(v)
			d.stageAgg[st] += v
			t.stages[st] += v
		}
	}
	h.Observe(lat)
	t.hist.Observe(lat)
	if done > d.maxDone {
		d.maxDone = done
		d.gCycle.Set(done)
	}
	if d.opts.RecordLatencies {
		d.rawLat = append(d.rawLat, lat)
		d.rawTen = append(d.rawTen, int32(op.Tenant))
		d.rawKind = append(d.rawKind, uint8(op.Kind))
	}
	return nil
}

// RunOps generates and executes up to n operations, returning how many
// ran (fewer when the scenario budget ends first).
func (d *Driver) RunOps(n int64) (int64, error) {
	var op Op
	for i := int64(0); i < n; i++ {
		if !d.GenOp(&op) {
			return i, nil
		}
		if err := d.ExecOp(&op); err != nil {
			return i, err
		}
	}
	return n, nil
}

// Run executes the scenario to the end of its budget.
func (d *Driver) Run() error {
	var op Op
	for d.GenOp(&op) {
		if err := d.ExecOp(&op); err != nil {
			return err
		}
	}
	return nil
}

// SetTarget swaps the target — the crash-under-load path: crash the
// pool, recover, reopen, and keep the same driver (schedules, histograms
// and golden payloads intact) against the reopened target. The new
// target must share the old one's geometry.
func (d *Driver) SetTarget(t Target) error {
	if int64(t.BlockSize()) != d.bs || t.DataSize() != d.tgt.DataSize() {
		return fmt.Errorf("loadgen: replacement target geometry %dB×%d differs from %dB×%d",
			t.BlockSize(), t.DataSize(), d.bs, d.tgt.DataSize())
	}
	if d.opts.Attribution {
		st, ok := t.(SpanTarget)
		if !ok {
			return fmt.Errorf("loadgen: Options.Attribution requires a SpanTarget, got %T", t)
		}
		d.spanTgt = st
	}
	d.tgt = t
	return nil
}

// Issued returns the number of ops generated so far.
func (d *Driver) Issued() int64 { return d.issued }

// MinLatency returns the smallest observed latency (0 before any op).
// Open-loop latencies are never negative — arrival-aware targets start
// service no earlier than the arrival — and the crash-under-load test
// asserts this stays true across a recovery.
func (d *Driver) MinLatency() int64 {
	if d.minLat == math.MaxInt64 {
		return 0
	}
	return d.minLat
}

// EventHash returns the hex SHA-256 of the generated event stream so
// far: the determinism pin (same seed, same stream).
func (d *Driver) EventHash() string {
	return hex.EncodeToString(d.sha.Sum(nil))
}

// Ops returns the collected op trace (Options.CollectOps).
func (d *Driver) Ops() []Op { return d.ops }

// Golden returns the acknowledged payload of every written block
// (Options.TrackGolden).
func (d *Driver) Golden() map[int64][]byte { return d.golden }

// TenantOps returns per-tenant completed-op counts (reads + writes) —
// the crash-under-load test asserts these and the histogram counts only
// ever grow across a recovery.
func (d *Driver) TenantOps() []int64 {
	out := make([]int64, len(d.tenants))
	for i := range d.tenants {
		out[i] = d.tenants[i].reads + d.tenants[i].writes
	}
	return out
}

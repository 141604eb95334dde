package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// TenantSummary reports one tenant's completed ops and latency
// percentiles (from its histogram series, so within one log2 bucket of
// exact).
type TenantSummary struct {
	Tenant        int
	Ops           int64
	P50, P95, P99 float64
}

// Summary is the deterministic end-of-run report: same seed, same
// summary, which is what the CLI golden tests pin.
type Summary struct {
	Scenario string
	Tenants  int
	Ops      int64
	Reads    int64
	Writes   int64
	Cycles   int64 // latest completion cycle

	ReadP50, ReadP95, ReadP99    float64
	WriteP50, WriteP95, WriteP99 float64

	WorstTenant    int
	WorstTenantOps int64
	WorstP99       float64

	EventHash string
}

// quantFmt renders a histogram quantile (a power of two, 0 or +Inf) in
// fixed form.
func quantFmt(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.0f", v)
}

// String renders the summary as the stable multi-line report emitted by
// `thothsim load`.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d tenants, %d ops (%d reads / %d writes), %d cycles\n",
		s.Scenario, s.Tenants, s.Ops, s.Reads, s.Writes, s.Cycles)
	fmt.Fprintf(&b, "  write latency p50/p95/p99: %s / %s / %s cycles\n",
		quantFmt(s.WriteP50), quantFmt(s.WriteP95), quantFmt(s.WriteP99))
	fmt.Fprintf(&b, "  read  latency p50/p95/p99: %s / %s / %s cycles\n",
		quantFmt(s.ReadP50), quantFmt(s.ReadP95), quantFmt(s.ReadP99))
	fmt.Fprintf(&b, "  worst tenant %04d: p99 %s cycles over %d ops\n",
		s.WorstTenant, quantFmt(s.WorstP99), s.WorstTenantOps)
	fmt.Fprintf(&b, "  event stream sha256: %s\n", s.EventHash)
	return b.String()
}

// Summary builds the end-of-run report from the histograms.
func (d *Driver) Summary() Summary {
	s := Summary{
		Scenario:  d.scn.Name,
		Tenants:   d.scn.Tenants,
		Cycles:    d.maxDone,
		ReadP50:   d.histRead.Quantile(0.50),
		ReadP95:   d.histRead.Quantile(0.95),
		ReadP99:   d.histRead.Quantile(0.99),
		WriteP50:  d.histWrite.Quantile(0.50),
		WriteP95:  d.histWrite.Quantile(0.95),
		WriteP99:  d.histWrite.Quantile(0.99),
		EventHash: d.EventHash(),
	}
	for i := range d.tenants {
		s.Reads += d.tenants[i].reads
		s.Writes += d.tenants[i].writes
	}
	s.Ops = s.Reads + s.Writes
	if ts := d.TenantSummaries(); len(ts) > 0 {
		s.WorstTenant = ts[0].Tenant
		s.WorstTenantOps = ts[0].Ops
		s.WorstP99 = ts[0].P99
	}
	return s
}

// TenantSummaries reports every tenant that completed at least one op,
// sorted by P99 descending (ties: fewer ops first is meaningless, so
// lowest tenant id first) — index 0 is the worst tenant.
func (d *Driver) TenantSummaries() []TenantSummary {
	out := make([]TenantSummary, 0, len(d.tenants))
	for i := range d.tenants {
		t := &d.tenants[i]
		n := t.reads + t.writes
		if n == 0 {
			continue
		}
		out = append(out, TenantSummary{
			Tenant: i,
			Ops:    n,
			P50:    t.hist.Quantile(0.50),
			P95:    t.hist.Quantile(0.95),
			P99:    t.hist.Quantile(0.99),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].P99 != out[b].P99 {
			return out[a].P99 > out[b].P99
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out
}

// checkQuantile compares one histogram quantile against the exact value
// recomputed from the sorted raw latencies: the estimate must be the
// upper bound of the bucket holding the exact q-th observation — i.e.
// within one log2 bucket.
func checkQuantile(what string, h *metrics.Histogram, sorted []int64, q float64) error {
	need := int64(math.Ceil(q * float64(len(sorted))))
	if need < 1 {
		need = 1
	}
	exact := sorted[need-1]
	want := metrics.BucketUpperBound(metrics.BucketIndex(exact))
	got := h.Quantile(q)
	if got != want {
		return fmt.Errorf("loadgen: %s p%g = %s, want %s (exact %d cycles)",
			what, q*100, quantFmt(got), quantFmt(want), exact)
	}
	return nil
}

// CheckQuantiles recomputes exact latency percentiles from the raw
// recorded stream (Options.RecordLatencies) and asserts every histogram
// estimate — aggregate read/write and per-tenant — sits exactly on the
// upper bound of the bucket holding the true value. This is the
// trace-replay recomputation the scenario acceptance demands.
func (d *Driver) CheckQuantiles() error {
	if !d.opts.RecordLatencies {
		return fmt.Errorf("loadgen: CheckQuantiles needs Options.RecordLatencies")
	}
	qs := []float64{0.50, 0.95, 0.99}
	var reads, writes []int64
	perTenant := make([][]int64, len(d.tenants))
	for i, lat := range d.rawLat {
		if d.rawKind[i] == uint8(OpRead) {
			reads = append(reads, lat)
		} else {
			writes = append(writes, lat)
		}
		ti := d.rawTen[i]
		perTenant[ti] = append(perTenant[ti], lat)
	}
	check := func(what string, h *metrics.Histogram, lats []int64) error {
		if len(lats) == 0 {
			return nil
		}
		sorted := append([]int64(nil), lats...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for _, q := range qs {
			if err := checkQuantile(what, h, sorted, q); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check("read", d.histRead, reads); err != nil {
		return err
	}
	if err := check("write", d.histWrite, writes); err != nil {
		return err
	}
	for i := range d.tenants {
		if err := check(fmt.Sprintf("tenant %04d", i), d.tenants[i].hist, perTenant[i]); err != nil {
			return err
		}
	}
	return nil
}

package loadgen

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// StageBreakdown is one row of the attribution report: total cycles
// charged to each pipeline stage over some population of ops. The stage
// totals sum exactly to the population's summed latency — ExecOp
// enforces that per op, so it holds for every aggregate by induction.
type StageBreakdown struct {
	Ops    int64
	Stages [obs.NumStages]int64
}

// Total returns the summed cycles across all stages (== summed latency).
func (b StageBreakdown) Total() int64 {
	var sum int64
	for _, v := range b.Stages {
		sum += v
	}
	return sum
}

// TenantBreakdown is one tenant's stage decomposition.
type TenantBreakdown struct {
	Tenant int
	StageBreakdown
}

// Attribution is the end-of-run tail-latency anatomy: where the cycles
// of every completed op went, aggregate and per tenant. Built by
// Driver.Attribution when Options.Attribution is on.
type Attribution struct {
	Aggregate StageBreakdown
	Tenants   []TenantBreakdown
}

// pct renders v as a percentage of total ("  0.0" when total is 0).
func pct(v, total int64) string {
	if total == 0 {
		return "  0.0"
	}
	return fmt.Sprintf("%5.1f", 100*float64(v)/float64(total))
}

// row renders one breakdown line: per-stage cycle totals with their
// share of the row's summed latency.
func row(b *strings.Builder, label string, sb StageBreakdown) {
	total := sb.Total()
	fmt.Fprintf(b, "  %-11s %8d ops %12d cycles |", label, sb.Ops, total)
	for _, st := range obs.Stages() {
		fmt.Fprintf(b, " %s %s%%", st, pct(sb.Stages[st], total))
	}
	b.WriteByte('\n')
}

// String renders the attribution as a stable multi-line table: the
// aggregate row, then every tenant sorted by id. Deterministic for a
// given seed — the CLI prints it under `thothsim load -attr`.
func (a Attribution) String() string {
	var b strings.Builder
	b.WriteString("cycle attribution (stage shares of total op latency):\n")
	row(&b, "aggregate", a.Aggregate)
	for _, t := range a.Tenants {
		row(&b, fmt.Sprintf("tenant %04d", t.Tenant), t.StageBreakdown)
	}
	return b.String()
}

// Attribution builds the attribution report from the per-stage totals
// ExecOp accumulated. It errors unless Options.Attribution was on.
func (d *Driver) Attribution() (Attribution, error) {
	if !d.opts.Attribution {
		return Attribution{}, fmt.Errorf("loadgen: Attribution needs Options.Attribution")
	}
	var a Attribution
	a.Aggregate.Stages = d.stageAgg
	for i := range d.tenants {
		t := &d.tenants[i]
		n := t.reads + t.writes
		if n == 0 {
			continue
		}
		a.Aggregate.Ops += n
		a.Tenants = append(a.Tenants, TenantBreakdown{
			Tenant:         i,
			StageBreakdown: StageBreakdown{Ops: n, Stages: t.stages},
		})
	}
	return a, nil
}

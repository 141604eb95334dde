package loadgen_test

// The attribution conservation sweep: with Options.Attribution on,
// every op's stage cycles must sum exactly to its open-loop latency —
// ExecOp enforces it per op and fails the run on any leak — and the
// aggregates must re-derive: stage totals equal to the summed latency
// the target reported, per-tenant totals summing to the aggregate. Swept over
// 200 crashfuzz-derived machines, against both a single controller and
// a 4-shard pool (the multi-segment critical-path selection included).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crashfuzz"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// conservationScenario is one small seeded open-loop scenario: Poisson
// arrivals so queueing (and hence the SpanQueue stage) is exercised,
// a read mix so both op paths are covered.
func conservationScenario(seed int64) loadgen.Scenario {
	return loadgen.Scenario{
		Name:        "attr-conservation",
		Arrival:     loadgen.ArrivalSpec{Kind: loadgen.ArrivePoisson, MeanCycles: 3000},
		Keys:        loadgen.KeySpec{Kind: loadgen.KeysUniform},
		ReadPercent: 40,
		Tenants:     3,
		Ops:         20,
		Seed:        seed,
	}
}

// latencyTap is a SpanTarget that sums every op's completion − arrival
// as the wrapped target reports it, independently of the driver.
type latencyTap struct {
	loadgen.SpanTarget
	sum int64
}

func (l *latencyTap) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	done, err := l.SpanTarget.WriteSpan(arrival, addr, data, span)
	l.sum += done - arrival
	return done, err
}

func (l *latencyTap) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	done, err := l.SpanTarget.ReadSpan(arrival, addr, dst, span)
	l.sum += done - arrival
	return done, err
}

// runConservation drives one scenario with attribution on and
// cross-checks the report against the latencies the target reported.
func runConservation(t *testing.T, seed int64, label string, tgt loadgen.SpanTarget, cfg crashfuzz.Case) {
	t.Helper()
	tap := &latencyTap{SpanTarget: tgt}
	d, err := loadgen.NewDriver(conservationScenario(seed), tap, cfg.ConfigFor(cfg.Variants[0].Scheme), nil,
		loadgen.Options{Attribution: true})
	if err != nil {
		t.Fatalf("seed %d %s: NewDriver: %v", seed, label, err)
	}
	// ExecOp enforces per-op conservation: any stage-cycle leak fails
	// the run here.
	if err := d.Run(); err != nil {
		t.Fatalf("seed %d %s: %v", seed, label, err)
	}
	a, err := d.Attribution()
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, label, err)
	}
	if a.Aggregate.Ops != 20 {
		t.Fatalf("seed %d %s: aggregate counts %d ops, want 20", seed, label, a.Aggregate.Ops)
	}
	latSum := tap.sum
	if got := a.Aggregate.Total(); got != latSum {
		t.Fatalf("seed %d %s: aggregate stage cycles %d != summed latency %d",
			seed, label, got, latSum)
	}
	var tenSum int64
	var tenOps int64
	for _, tb := range a.Tenants {
		tenSum += tb.Total()
		tenOps += tb.Ops
	}
	if tenSum != latSum || tenOps != a.Aggregate.Ops {
		t.Fatalf("seed %d %s: tenant totals (%d cycles, %d ops) != aggregate (%d, %d)",
			seed, label, tenSum, tenOps, latSum, a.Aggregate.Ops)
	}
}

func TestAttributionConservationSweep(t *testing.T) {
	const sweepSeeds = 200
	for seed := int64(0); seed < sweepSeeds; seed++ {
		c := crashfuzz.DeriveCase(seed)
		cfg := c.ConfigFor(c.Variants[0].Scheme)

		ctl, err := core.New(cfg)
		if err != nil {
			t.Fatalf("seed %d: core.New: %v", seed, err)
		}
		runConservation(t, seed, "controller", loadgen.NewControllerTarget(ctl), c)

		pool, err := engine.New(cfg, 4)
		if err != nil {
			t.Fatalf("seed %d: engine.New: %v", seed, err)
		}
		runConservation(t, seed, "pool", loadgen.NewPoolTarget(pool), c)
		if _, err := pool.Shutdown(); err != nil {
			t.Fatalf("seed %d: pool shutdown: %v", seed, err)
		}
	}
}

// TestAttributionRequiresSpanTarget pins the fail-loud contract: a
// target without span support is rejected at construction and at
// SetTarget.
func TestAttributionRequiresSpanTarget(t *testing.T) {
	c := crashfuzz.DeriveCase(1)
	cfg := c.ConfigFor(c.Variants[0].Scheme)
	ctl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := loadgen.NewControllerTarget(ctl)
	if _, err := loadgen.NewDriver(conservationScenario(1), plainTarget{tgt}, cfg, nil,
		loadgen.Options{Attribution: true}); err == nil {
		t.Fatal("NewDriver accepted a span-less target with Attribution on")
	}
	d, err := loadgen.NewDriver(conservationScenario(1), tgt, cfg, nil,
		loadgen.Options{Attribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetTarget(plainTarget{tgt}); err == nil {
		t.Fatal("SetTarget accepted a span-less target with Attribution on")
	}
}

// plainTarget strips the SpanTarget methods off a real target.
type plainTarget struct{ t *loadgen.ControllerTarget }

func (p plainTarget) BlockSize() int  { return p.t.BlockSize() }
func (p plainTarget) DataSize() int64 { return p.t.DataSize() }
func (p plainTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	return p.t.Write(arrival, addr, data)
}
func (p plainTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	return p.t.Read(arrival, addr, dst)
}

package loadgen

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// fakeTarget is a fixed-service-time target: completion = max(arrival,
// clock) + service per op. It lets the generator-side tests run without
// building a controller.
type fakeTarget struct {
	bs      int
	size    int64
	now     int64
	service int64
}

func (f *fakeTarget) BlockSize() int  { return f.bs }
func (f *fakeTarget) DataSize() int64 { return f.size }

func (f *fakeTarget) step(arrival int64) int64 {
	if arrival > f.now {
		f.now = arrival
	}
	f.now += f.service
	return f.now
}

func (f *fakeTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	return f.step(arrival), nil
}

func (f *fakeTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	return f.step(arrival), nil
}

// tinyScenario shrinks a matrix entry for fast generator tests.
func tinyScenario(s Scenario) Scenario {
	s.Tenants = 4
	s.Ops = 64
	return s
}

// newTinyDriver builds a driver for a shrunk scenario over a fake
// target (4 tenants × 256 blocks of 256 bytes).
func newTinyDriver(t *testing.T, s Scenario, opts Options) (*Driver, *fakeTarget) {
	t.Helper()
	tgt := &fakeTarget{bs: 256, size: 4 * 256 * 256, service: 1500}
	d, err := NewDriver(s, tgt, config.Default(), nil, opts)
	if err != nil {
		t.Fatalf("NewDriver(%q): %v", s.Name, err)
	}
	return d, tgt
}

// TestEventStreamGolden pins the exact generated event stream of every
// matrix scenario (shrunk) against a golden file: same seed, same
// stream, across refactors and Go releases. Regenerate with
// LOADGEN_GOLDEN_UPDATE=1.
func TestEventStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range Scenarios() {
		d, _ := newTinyDriver(t, tinyScenario(s), Options{})
		var op Op
		for d.GenOp(&op) {
		}
		fmt.Fprintf(&b, "%s %d %s\n", s.Name, d.Issued(), d.EventHash())
	}
	got := b.String()

	golden := filepath.Join("testdata", "event_streams.golden")
	if os.Getenv("LOADGEN_GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with LOADGEN_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("event streams diverge from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDriverDeterminism runs the same scenario twice end to end and
// demands identical event hashes, summaries and latency histograms.
func TestDriverDeterminism(t *testing.T) {
	for _, s := range Scenarios() {
		s := tinyScenario(s)
		run := func() Summary {
			d, _ := newTinyDriver(t, s, Options{RecordLatencies: true})
			if err := d.Run(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if err := d.CheckQuantiles(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			return d.Summary()
		}
		a, b := run(), run()
		if a != b {
			t.Fatalf("%s: summaries diverge:\n%v\n%v", s.Name, a, b)
		}
		if a.Ops != s.Ops {
			t.Fatalf("%s: completed %d ops, want %d", s.Name, a.Ops, s.Ops)
		}
	}
}

// TestArrivalsNondecreasing pins the open-loop schedule: the generated
// stream is globally ordered by arrival cycle.
func TestArrivalsNondecreasing(t *testing.T) {
	for _, s := range Scenarios() {
		d, _ := newTinyDriver(t, tinyScenario(s), Options{})
		var op Op
		prev := int64(-1)
		for d.GenOp(&op) {
			if op.Arrival < prev {
				t.Fatalf("%s: arrival %d after %d — schedule out of order", s.Name, op.Arrival, prev)
			}
			prev = op.Arrival
		}
	}
}

// TestPartitionsDisjoint verifies every generated address stays inside
// its tenant's private partition.
func TestPartitionsDisjoint(t *testing.T) {
	s := tinyScenario(Scenarios()[0])
	s.Ops = 512
	d, tgt := newTinyDriver(t, s, Options{})
	perTenant := tgt.size / int64(s.Tenants)
	var op Op
	for d.GenOp(&op) {
		lo := int64(op.Tenant) * perTenant
		if op.Addr < lo || op.Addr+int64(op.Len) > lo+perTenant {
			t.Fatalf("tenant %d op at [%d,+%d) escapes partition [%d,%d)",
				op.Tenant, op.Addr, op.Len, lo, lo+perTenant)
		}
		if op.Addr%int64(tgt.bs) != 0 || op.Len != tgt.bs {
			t.Fatalf("op at [%d,+%d) is not one aligned block", op.Addr, op.Len)
		}
	}
}

// TestReadMix verifies the read fraction lands near the scenario tier.
func TestReadMix(t *testing.T) {
	s := Scenarios()[0] // steady: 50% reads
	s.Tenants = 4
	s.Ops = 4000
	d, _ := newTinyDriver(t, s, Options{})
	var op Op
	reads := 0
	for d.GenOp(&op) {
		if op.Kind == OpRead {
			reads++
		}
	}
	frac := float64(reads) / 4000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("read fraction %.3f, want 0.50 ±0.05", frac)
	}
}

// TestDurationCyclesStops verifies the horizon cutoff.
func TestDurationCyclesStops(t *testing.T) {
	s := Scenarios()[0]
	s.Tenants = 4
	s.Ops = 0 // unbounded: the horizon must stop it
	s.DurationCycles = 2_000_000
	d, _ := newTinyDriver(t, s, Options{})
	var op Op
	n := 0
	for d.GenOp(&op) {
		if op.Arrival > s.DurationCycles {
			t.Fatalf("op arrives at %d past horizon %d", op.Arrival, s.DurationCycles)
		}
		n++
	}
	if n == 0 {
		t.Fatal("horizon stopped the run before any op")
	}
}

// TestOpenLoopLatencyGrowsUnderOverload drives a saturated fake target
// (service far above the aggregate gap) and checks the defining
// open-loop property: queueing delay accumulates, so late ops see far
// larger latency than early ones.
func TestOpenLoopLatencyGrowsUnderOverload(t *testing.T) {
	s := Scenario{
		Name:    "overload",
		Arrival: ArrivalSpec{Kind: ArriveConstant, MeanCycles: 100},
		Keys:    KeySpec{Kind: KeysUniform},
		Tenants: 1, Ops: 200, Seed: 1,
	}
	tgt := &fakeTarget{bs: 256, size: 256 * 256, service: 1000}
	d, err := NewDriver(s, tgt, config.Default(), nil, Options{RecordLatencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	// Op k arrives at 100k and completes at 1000k: latency grows by
	// 900 per op, so the tail must dwarf the first op's pure service
	// time (a closed loop would keep every latency at the service time).
	sum := d.Summary()
	if min := d.MinLatency(); sum.WriteP99 < 50*float64(min) {
		t.Fatalf("overloaded open loop shows no queueing growth: min %d p99 %.0f",
			min, sum.WriteP99)
	}
	if err := d.CheckQuantiles(); err != nil {
		t.Fatal(err)
	}
}

// TestSetTargetGeometry pins the geometry check on target swap.
func TestSetTargetGeometry(t *testing.T) {
	s := tinyScenario(Scenarios()[0])
	d, tgt := newTinyDriver(t, s, Options{})
	if err := d.SetTarget(&fakeTarget{bs: 128, size: tgt.size}); err == nil {
		t.Fatal("block-size mismatch accepted")
	}
	if err := d.SetTarget(&fakeTarget{bs: tgt.bs, size: tgt.size * 2}); err == nil {
		t.Fatal("data-size mismatch accepted")
	}
	if err := d.SetTarget(&fakeTarget{bs: tgt.bs, size: tgt.size}); err != nil {
		t.Fatalf("matching target rejected: %v", err)
	}
}

// TestTooManyTenants pins the partition-exhaustion error.
func TestTooManyTenants(t *testing.T) {
	s := Scenarios()[0]
	s.Tenants = 100000
	tgt := &fakeTarget{bs: 256, size: 256 * 256}
	if _, err := NewDriver(s, tgt, config.Default(), nil, Options{}); err == nil {
		t.Fatal("100000 tenants over 256 blocks accepted")
	}
}

// TestGenOpZeroAlloc asserts the generator hot path allocates nothing —
// the property the micro/loadgen_tick benchmark gates in CI.
// AllocsPerRun truncates its mean to a whole number, so each run
// generates a batch of ops, and one allocation in every batch fails.
func TestGenOpZeroAlloc(t *testing.T) {
	s := Scenarios()[0]
	s.Tenants = 16
	s.Ops = 0 // unbounded
	tgt := &fakeTarget{bs: 256, size: 16 * 256 * 256, service: 1500}
	d, err := NewDriver(s, tgt, config.Default(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	var op Op
	if avg := testing.AllocsPerRun(100, func() {
		for range batch {
			d.GenOp(&op)
		}
	}); avg != 0 {
		t.Fatalf("GenOp allocates %.3f objects per op, want 0", avg/batch)
	}
}

// TestExecOpZeroAlloc asserts the write path's bookkeeping allocates
// nothing: once every golden-record page exists, a generated write
// executed with TrackGolden costs no allocation, new blocks included.
// AllocsPerRun truncates its mean to a whole number, so each run
// executes a batch of writes, and one allocation in every batch fails.
func TestExecOpZeroAlloc(t *testing.T) {
	s := Scenarios()[0]
	s.Tenants = 16
	s.Ops = 0 // unbounded
	s.ReadPercent = 0
	tgt := &fakeTarget{bs: 256, size: 16 * 4096 * 256, service: 1500}
	d, err := NewDriver(s, tgt, config.Default(), nil, Options{TrackGolden: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunOps(10000); err != nil {
		t.Fatal(err)
	}
	for pi, p := range d.golden {
		if p == nil {
			t.Fatalf("golden page %d untouched after warm-up", pi)
		}
	}
	const batch = 64
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := d.RunOps(batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("GenOp+ExecOp allocate %.3f objects per op, want 0", avg/batch)
	}
}

// TestGoldenRejectsPartialOps: with TrackGolden, an op that is not one
// aligned block fails without reaching the target; without it, the same
// op reaches the target's read-modify-write.
func TestGoldenRejectsPartialOps(t *testing.T) {
	s := tinyScenario(Scenarios()[0])
	for _, op := range []Op{
		{Tenant: 2, Kind: OpWrite, Addr: 2*256*256 + 128, Len: 256},
		{Tenant: 2, Kind: OpWrite, Addr: 2 * 256 * 256, Len: 100},
		{Tenant: 1, Kind: OpRead, Addr: 256*256 + 64, Len: 256},
		{Tenant: 1, Kind: OpWrite, Addr: 256 * 256, Len: 512},
	} {
		d, tgt := newTinyDriver(t, s, Options{TrackGolden: true})
		err := d.ExecOp(&op)
		if err == nil {
			t.Fatalf("%s [%d,+%d) accepted with TrackGolden", op.Kind, op.Addr, op.Len)
		}
		want := fmt.Sprintf("tenant %d %s [%d,+%d)", op.Tenant, op.Kind, op.Addr, op.Len)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
		if tgt.now != 0 {
			t.Fatalf("%s [%d,+%d) reached the target", op.Kind, op.Addr, op.Len)
		}
		if g := d.Golden(); len(g) != 0 {
			t.Fatalf("rejected op recorded %d golden blocks", len(g))
		}

		d, tgt = newTinyDriver(t, s, Options{})
		if err := d.ExecOp(&op); err != nil {
			t.Fatalf("%s [%d,+%d) without TrackGolden: %v", op.Kind, op.Addr, op.Len, err)
		}
		if tgt.now == 0 {
			t.Fatalf("%s [%d,+%d) without TrackGolden never reached the target", op.Kind, op.Addr, op.Len)
		}
	}
}

// TestCollectOpsRoundTrip verifies a stream collected from GenOp
// replays through ExecOp on a second driver's target, completing every
// op.
func TestCollectOpsRoundTrip(t *testing.T) {
	s := tinyScenario(Scenarios()[0])
	d, _ := newTinyDriver(t, s, Options{})
	var ops []Op
	var op Op
	for d.GenOp(&op) {
		if err := d.ExecOp(&op); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if int64(len(ops)) != s.Ops {
		t.Fatalf("collected %d ops, want %d", len(ops), s.Ops)
	}
	// Replaying through a fresh fake target completes every op.
	tgt := &fakeTarget{bs: 256, size: 4 * 256 * 256, service: 1500}
	d2, _ := newTinyDriver(t, s, Options{})
	if err := d2.SetTarget(tgt); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := d2.ExecOp(&ops[i]); err != nil {
			t.Fatalf("replay op %d: %v", i, err)
		}
	}
	if got := d2.Summary().Ops; got != s.Ops {
		t.Fatalf("replay completed %d ops, want %d", got, s.Ops)
	}
}

// readGoldenNames sanity-checks the golden file stays in sync with the
// matrix (a scenario added without regenerating goldens fails loudly).
func TestGoldenCoversMatrix(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "event_streams.golden"))
	if err != nil {
		t.Skip("golden not generated yet")
	}
	defer f.Close()
	names := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			names[fields[0]] = true
		}
	}
	for _, n := range ScenarioNames() {
		if !names[n] {
			t.Fatalf("scenario %q missing from event_streams.golden (LOADGEN_GOLDEN_UPDATE=1)", n)
		}
	}
}

// BenchmarkGenOp is the micro/loadgen_tick benchmark: one generator
// tick (heap pop, mix/key draw, hash fold, reschedule). CI gates it at
// zero allocations.
func BenchmarkGenOp(b *testing.B) {
	s := Scenarios()[0]
	s.Tenants = 64
	s.Ops = 0
	tgt := &fakeTarget{bs: 256, size: 64 * 256 * 256, service: 1500}
	d, err := NewDriver(s, tgt, config.Default(), nil, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var op Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.GenOp(&op)
	}
}

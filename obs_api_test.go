package thoth

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSentinelErrors(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	if err := s.Write(-1, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Read(s.DataSize(), 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, []byte{1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: err = %v, want ErrCrashed", err)
	}
	if _, err := s.Read(0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: err = %v, want ErrCrashed", err)
	}
	if err := s.VerifyCrashConsistency(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("verify after crash: err = %v, want ErrCrashed", err)
	}
}

func TestStatsSnapshotIsImmutable(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	s.Write(0, make([]byte, 4096))
	snap := s.Stats()
	before := snap.TotalWrites()
	if before == 0 {
		t.Fatal("snapshot must report the writes so far")
	}
	if snap.Cycles != s.Elapsed() {
		t.Fatalf("snapshot Cycles = %d, want Elapsed() = %d", snap.Cycles, s.Elapsed())
	}
	s.Write(8192, make([]byte, 4096))
	if snap.TotalWrites() != before {
		t.Fatal("snapshot changed after later writes; Stats must return a copy")
	}
	if cur := s.Stats(); cur.TotalWrites() <= before {
		t.Fatal("a fresh snapshot must see the later writes")
	}
}

func TestStatsDelta(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	s.Write(0, make([]byte, 4096))
	d1 := s.StatsDelta()
	if d1.TotalWrites() == 0 || d1.Cycles <= 0 {
		t.Fatalf("first delta must cover the run so far: %+v", d1)
	}
	// No activity in between: the next delta is empty.
	if d2 := s.StatsDelta(); d2.TotalWrites() != 0 || d2.Cycles != 0 {
		t.Fatalf("idle delta must be zero, got writes=%d cycles=%d", d2.TotalWrites(), d2.Cycles)
	}
	s.Write(16384, make([]byte, 128))
	d3 := s.StatsDelta()
	if d3.TotalWrites() == 0 {
		t.Fatal("delta must cover the interval's writes")
	}
	cum := s.Stats()
	if total := cum.TotalWrites(); d3.TotalWrites() >= total {
		t.Fatalf("delta (%d writes) must not re-count earlier intervals (cumulative %d)", d3.TotalWrites(), total)
	}
}

// TestStatsAcrossCrashRecovery pins the documented snapshot semantics
// at the Crash/recovery boundary: a System opened after recovery starts
// its counters and clock from zero, its first StatsDelta covers only
// the new incarnation, and subtracting a pre-crash snapshot by hand
// yields negative fields (a reset marker, not overflow).
func TestStatsAcrossCrashRecovery(t *testing.T) {
	cfg := testConfig(WTSC)
	s := mustSys(t, cfg)
	for i := 0; i < 200; i++ {
		if err := s.Write(int64(i%37)*4096, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	pre := s.Stats()
	if pre.TotalWrites() == 0 || pre.Cycles == 0 {
		t.Fatalf("pre-crash snapshot empty: %+v", pre)
	}
	img, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	// The dead System keeps its final snapshot: the pre-crash work plus
	// the ADR flush, stamped at the crash cycle.
	if final := s.Stats(); final.TotalWrites() < pre.TotalWrites() ||
		final.Cycles != pre.Cycles || s.Elapsed() != pre.Cycles {
		t.Fatalf("after Crash: writes=%d cycles=%d elapsed=%d, want writes >= %d at cycle %d",
			final.TotalWrites(), final.Cycles, s.Elapsed(), pre.TotalWrites(), pre.Cycles)
	}
	// So does a shut-down one, stamped when the write-back drained.
	down := mustSys(t, cfg)
	for i := 0; i < 50; i++ {
		if err := down.Write(int64(i%37)*4096, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	live := down.Stats()
	if _, err := down.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if final := down.Stats(); final.TotalWrites() < live.TotalWrites() ||
		final.Cycles < live.Cycles || final.Cycles != down.Elapsed() {
		t.Fatalf("after Shutdown: writes=%d cycles=%d elapsed=%d, want writes >= %d, cycles >= %d",
			final.TotalWrites(), final.Cycles, down.Elapsed(), live.TotalWrites(), live.Cycles)
	}

	if _, err := Recover(cfg, img); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg, img)
	if err != nil {
		t.Fatal(err)
	}

	// The new incarnation restarts from zero: its snapshot reflects no
	// pre-crash activity, and the clock is back at cycle 0.
	if fresh := s2.Stats(); fresh.TotalWrites() != 0 || fresh.Cycles != 0 {
		t.Fatalf("post-recovery system must start from zero, got writes=%d cycles=%d",
			fresh.TotalWrites(), fresh.Cycles)
	}

	const postWrites = 5
	for i := 0; i < postWrites; i++ {
		if err := s2.Write(int64(i)*4096, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}

	// StatsDelta on the new System uses its own zero baseline: the first
	// delta covers exactly the post-recovery work and never goes
	// negative within one incarnation.
	d := s2.StatsDelta()
	if d.TotalWrites() == 0 || d.Cycles <= 0 {
		t.Fatalf("first post-recovery delta must cover the new work: %+v", d)
	}
	if d.Transactions < 0 || d.NVMReads < 0 {
		t.Fatalf("delta within one incarnation went negative: %+v", d)
	}

	// Mixing incarnations by hand exposes the reset: the heavier
	// pre-crash history makes the difference negative, per Stats.Sub.
	cross := s2.Stats().Sub(pre)
	if cross.TotalWrites() >= 0 {
		t.Fatalf("cross-incarnation write delta = %d, want negative (pre had %d writes)",
			cross.TotalWrites(), pre.TotalWrites())
	}
	if cross.Cycles >= 0 {
		t.Fatalf("cross-incarnation cycle delta = %d, want negative", cross.Cycles)
	}
}

func TestReaderAtWriterAt(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	var (
		_ io.ReaderAt = s
		_ io.WriterAt = s
	)
	payload := bytes.Repeat([]byte{0xAB}, 300)
	n, err := s.WriteAt(payload, 1000)
	if err != nil || n != len(payload) {
		t.Fatalf("WriteAt = (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	got := make([]byte, 300)
	if n, err := s.ReadAt(got, 1000); err != nil || n != 300 {
		t.Fatalf("ReadAt = (%d, %v), want (300, nil)", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("ReadAt returned different bytes than WriteAt stored")
	}

	// Reads crossing the end truncate and report io.EOF.
	tail := make([]byte, 100)
	n, err = s.ReadAt(tail, s.DataSize()-40)
	if n != 40 || err != io.EOF {
		t.Fatalf("short ReadAt = (%d, %v), want (40, io.EOF)", n, err)
	}
	if n, err := s.ReadAt(tail, s.DataSize()); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at end = (%d, %v), want (0, io.EOF)", n, err)
	}
	if n, err := s.ReadAt(tail, s.DataSize()+1); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt past end = (%d, %v), want (0, io.EOF)", n, err)
	}
	// Writes never truncate.
	if _, err := s.WriteAt(tail, s.DataSize()-40); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong WriteAt: err = %v, want ErrOutOfRange", err)
	}
	if n, err := s.ReadAt(tail, -1); n != 0 || !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative ReadAt = (%d, %v), want (0, ErrOutOfRange)", n, err)
	}
	// A crashed System refuses every ReadAt, in range or past the end.
	if _, err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{1000, s.DataSize() + 1} {
		if n, err := s.ReadAt(got, off); n != 0 || !errors.Is(err, ErrCrashed) {
			t.Fatalf("ReadAt(%d) after Crash = (%d, %v), want (0, ErrCrashed)", off, n, err)
		}
	}
}

func TestRegionsTreeLevels(t *testing.T) {
	cfg := testConfig(WTSC)
	r, err := RegionsOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TreeLevels) == 0 {
		t.Fatal("tree must have at least one level")
	}
	if r.TreeLevels[0].Base != r.TreeBase {
		t.Fatalf("level 0 base %#x, want TreeBase %#x", r.TreeLevels[0].Base, r.TreeBase)
	}
	var total int64
	for i, lv := range r.TreeLevels {
		if lv.Bytes <= 0 {
			t.Fatalf("level %d has %d bytes", i, lv.Bytes)
		}
		if i > 0 {
			prev := r.TreeLevels[i-1]
			if lv.Base != prev.Base+prev.Bytes {
				t.Fatalf("level %d at %#x not contiguous after level %d", i, lv.Base, i-1)
			}
			if lv.Bytes >= prev.Bytes {
				t.Fatalf("level %d (%dB) must be smaller than level %d (%dB)", i, lv.Bytes, i-1, prev.Bytes)
			}
		}
		total += lv.Bytes
	}
	if total != r.TreeBytes {
		t.Fatalf("levels sum to %d bytes, lumped TreeBytes is %d", total, r.TreeBytes)
	}
	last := r.TreeLevels[len(r.TreeLevels)-1]
	if last.Base+last.Bytes != r.PUBBase {
		t.Fatalf("tree must end at PUBBase %#x, ends at %#x", r.PUBBase, last.Base+last.Bytes)
	}
}

func TestTracerThroughPublicAPI(t *testing.T) {
	cfg := testConfig(WTSC)
	ring := NewTraceRing(1 << 16)
	var jsonl bytes.Buffer
	sink := NewJSONLTracer(&jsonl)
	cfg.Tracer = MultiTracer(ring, sink)
	s := mustSys(t, cfg)
	for i := 0; i < 200; i++ {
		if err := s.Write(int64(i%50)*4096, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if ring.Len() == 0 {
		t.Fatal("traced run emitted no events")
	}
	var kinds []TraceKind
	seen := map[TraceKind]bool{}
	for _, e := range ring.Events() {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			kinds = append(kinds, e.Kind)
		}
	}
	for _, want := range []TraceKind{TracePCBFlush, TraceWPQDrain} {
		if !seen[want] {
			t.Errorf("trace missing %v events (saw %v)", want, kinds)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != int64(ring.Count()) {
		t.Fatalf("sinks disagree: jsonl %d events, ring %d", sink.Count(), ring.Count())
	}
}

func TestRunConfigTracer(t *testing.T) {
	cfg := testConfig(WTSC)
	cfg.LLCBytes = 1 << 20
	ring := NewTraceRing(1 << 16)
	cfg.Tracer = ring
	_, err := RunWorkload(RunConfig{
		Config:     cfg,
		Workload:   "swap",
		MeasureTxs: 50,
		SetupKeys:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("RunConfig.Config.Tracer received no events")
	}
}

// TestMetricsThroughPublicAPI covers the re-exported metrics surface:
// event-derived series via MetricsFromTracer and the Prometheus
// renderer.
func TestMetricsThroughPublicAPI(t *testing.T) {
	cfg := testConfig(WTSC)
	reg := NewMetricsRegistry()
	cfg.Tracer = MetricsFromTracer(reg)
	s := mustSys(t, cfg)
	for i := 0; i < 200; i++ {
		if err := s.Write(int64(i%50)*4096, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"thoth_events_total", // per-kind counters
		"thoth_wpq_residency_cycles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if !strings.Contains(out, `kind="pcb-flush"`) {
		t.Error("derived event counters carry no kind labels")
	}
}

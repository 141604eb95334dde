package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a fixed registry exercising every metric type,
// labeled and unlabeled series, and histogram under/overflow.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("thoth_events_total", "Controller events by kind.", Label{"kind", "pcb-flush"}).Add(42)
	r.Counter("thoth_events_total", "Controller events by kind.", Label{"kind", "pub-evict"}).Add(17)
	r.Gauge("thoth_pub_occupancy_blocks", "Live PUB ring occupancy in packed blocks.", Label{"scheme", "thoth-wtsc"}).Set(96)
	h := r.Histogram("thoth_wpq_residency_cycles", "Cycles a write spent pending in the WPQ before issue.")
	for _, v := range []int64{0, 1, 2, 5, 9, 100, 2048, 2048, 1 << 50} {
		h.Observe(v)
	}
	lh := r.Histogram("thoth_recovery_phase_cycles", "Modeled cycles per recovery phase.", Label{"phase", "scan"})
	lh.Observe(300)
	return r
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteProm output drifted from golden (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWritePromValidates closes the loop: the encoder's output must pass
// the validator the smoke test uses on live scrapes.
func TestWritePromValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateProm(&buf)
	if err != nil {
		t.Fatalf("encoder output failed validation: %v", err)
	}
	if n == 0 {
		t.Fatal("validator saw no samples")
	}
}

func TestWritePromHistogramShape(t *testing.T) {
	r := New()
	h := r.Histogram("lat_cycles", "Latency.")
	h.Observe(1) // bucket 0
	h.Observe(3) // bucket 2
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_cycles histogram",
		`lat_cycles_bucket{le="1"} 1`,
		`lat_cycles_bucket{le="2"} 1`, // cumulative: empty bucket still emitted below the top
		`lat_cycles_bucket{le="4"} 2`,
		`lat_cycles_bucket{le="+Inf"} 2`,
		`lat_cycles_sum 4`,
		`lat_cycles_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="8"`) {
		t.Errorf("buckets above the highest populated one should be elided:\n%s", out)
	}
}

func TestValidatePromRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"sample before TYPE", "x_total 3\n"},
		{"bad value", "# TYPE x_total counter\nx_total zebra\n"},
		{"unknown type", "# TYPE x_total exotic\nx_total 3\n"},
		{"re-typed family", "# TYPE x counter\nx 1\n# TYPE x gauge\nx 2\n"},
		{"bad metric name", "# TYPE x counter\n0x{} 3\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n"},
		{"decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 7\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 5\n"},
		{"malformed comment", "# NOPE\n"},
	}
	for _, c := range cases {
		if _, err := ValidateProm(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: validator accepted invalid input", c.name)
		}
	}
}

func TestValidatePromAcceptsForeign(t *testing.T) {
	// A scrape from another exporter (floats, HELP lines, summaries)
	// must pass: the validator checks structure, not our encoder's
	// exact dialect.
	input := `# HELP go_goroutines Number of goroutines.
# TYPE go_goroutines gauge
go_goroutines 42
# TYPE rpc_seconds summary
rpc_seconds{quantile="0.5"} 0.04
rpc_seconds_sum 12.5
rpc_seconds_count 100
`
	n, err := ValidateProm(strings.NewReader(input))
	if err != nil {
		t.Fatalf("valid foreign exposition rejected: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d samples, want 4", n)
	}
}

// TestLabelEscapingRoundTrip pins the Prometheus text-format escaping
// of label values: backslash, double quote and newline are escaped
// (and nothing else — Go's %q dialect is not the exposition format),
// and the rendered output round-trips through ValidateProm.
func TestLabelEscapingRoundTrip(t *testing.T) {
	r := New()
	hostile := []struct{ value, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`dou"ble`, `dou\"ble`},
		{"new\nline", `new\nline`},
		{"tab\tstays", "tab\tstays"},
		{"unicode µs", "unicode µs"},
		{`all "three"` + "\n" + `\mixed`, `all \"three\"\n\\mixed`},
	}
	for i, h := range hostile {
		r.Counter("thoth_escape_total", "Escaping cases.",
			Label{"case", h.value}, Label{"idx", string(rune('a' + i))}).Add(int64(i + 1))
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, h := range hostile {
		want := `case="` + h.want + `"`
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `\t`) || strings.Contains(out, `\u`) || strings.Contains(out, `\x`) {
		t.Errorf("Go-quoting escape leaked into exposition:\n%s", out)
	}
	n, err := ValidateProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("escaped exposition failed validation: %v\n%s", err, out)
	}
	if n != len(hostile) {
		t.Fatalf("validated %d samples, want %d", n, len(hostile))
	}
}

package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(numKinds)-1 {
		t.Fatalf("Kinds() returned %d kinds, enum declares %d", len(ks), int(numKinds)-1)
	}
	seen := make(map[string]bool)
	for _, k := range ks {
		name := k.String()
		if strings.Contains(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("kind name %q is not unique", name)
		}
		seen[name] = true
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v,%v, want %v", name, got, ok, k)
		}
		if !ValidKind(k) {
			t.Fatalf("ValidKind(%v) = false for a declared kind", k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

// TestUndeclaredKindsRejected pins the boundary: KindNone and every
// value at or past the end of the enum is invalid, its String form is
// the kind(N) placeholder, and KindByName refuses to resolve it — so
// DecodeJSONL (and so tracemetrics) rejects events carrying one.
func TestUndeclaredKindsRejected(t *testing.T) {
	for _, k := range []Kind{KindNone, numKinds, numKinds + 1, Kind(200), Kind(255)} {
		if ValidKind(k) && k != KindNone {
			t.Errorf("ValidKind(%d) = true for an undeclared kind", k)
		}
		if k == KindNone {
			if ValidKind(k) {
				t.Error("ValidKind(KindNone) = true")
			}
			continue
		}
		name := k.String()
		if !strings.Contains(name, "kind(") {
			t.Errorf("undeclared kind %d has a real-looking name %q", k, name)
		}
		if got, ok := KindByName(name); ok {
			t.Errorf("KindByName(%q) resolved undeclared kind to %v", name, got)
		}
	}
}

// TestRingConcurrentEmit exercises Ring under parallel emission (the
// race-detector CI lane is what gives this test its teeth): parallel
// recovery workers share tracers, so every sink must serialize Emit.
func TestRingConcurrentEmit(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Emit(Event{Kind: KindWPQDrain, Cycle: int64(g*perG + i), Scheme: "thoth-wtsc"})
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", r.Count(), goroutines*perG)
	}
	if r.Len() != 64 || r.Dropped() != goroutines*perG-64 {
		t.Fatalf("len=%d dropped=%d, want 64/%d", r.Len(), r.Dropped(), goroutines*perG-64)
	}
	if got := len(r.Events()); got != 64 {
		t.Fatalf("Events() returned %d, want 64", got)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := int64(1); i <= 5; i++ {
		r.Emit(Event{Kind: KindPCBFlush, Cycle: i, Scheme: "thoth-wtsc"})
	}
	if r.Len() != 3 || r.Count() != 5 || r.Dropped() != 2 {
		t.Fatalf("len=%d count=%d dropped=%d, want 3/5/2", r.Len(), r.Count(), r.Dropped())
	}
	ev := r.Events()
	for i, want := range []int64{3, 4, 5} {
		if ev[i].Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d", i, ev[i].Cycle, want)
		}
	}
}

func TestFuncAndMulti(t *testing.T) {
	var a, b int
	tr := Multi(Func(func(Event) { a++ }), Func(func(Event) { b++ }), Nop{})
	tr.Emit(Event{Kind: KindWPQDrain})
	tr.Emit(Event{Kind: KindWPQDrain})
	if a != 2 || b != 2 {
		t.Fatalf("multi fan-out reached a=%d b=%d, want 2/2", a, b)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Kind: KindPCBFlush, Cycle: 812, Addr: 0x100200, Aux: 9, Scheme: "thoth-wtsc"})
	j.Emit(Event{Kind: KindPUBEvict, Cycle: 901, Addr: 0x40, Aux: 0x100200, Scheme: "thoth-wtsc", Part: "ctr", Detail: "written-back"})
	j.Emit(Event{Kind: KindRecoveryMerge, Cycle: 0, Addr: 4096, Scheme: "thoth-wtbc", Detail: "stale"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Count() != 3 {
		t.Fatalf("count = %d, want 3", j.Count())
	}
	n, err := DecodeJSONL(bytes.NewReader(buf.Bytes()), func(Event) {})
	if err != nil {
		t.Fatalf("emitted stream does not validate: %v\n%s", err, buf.String())
	}
	if n != 3 {
		t.Fatalf("validated %d events, want 3", n)
	}
}

// TestValidateJSONLRejects validates streams with DecodeJSONL and a
// discarding callback: each bad line, after a good one, stops
// validation with one event counted and the bad line's number in the
// error.
func TestValidateJSONLRejects(t *testing.T) {
	const good = `{"kind":"pcb-flush","cycle":1,"addr":0,"scheme":"x"}` + "\n"
	cases := map[string]string{
		"not JSON":       "pcb-flush 812\n",
		"missing field":  `{"kind":"pcb-flush","cycle":1,"addr":0}` + "\n",
		"unknown kind":   `{"kind":"warp-drive","cycle":1,"addr":0,"scheme":"x"}` + "\n",
		"unknown field":  `{"kind":"pcb-flush","cycle":1,"addr":0,"scheme":"x","bogus":1}` + "\n",
		"negative cycle": `{"kind":"pcb-flush","cycle":-1,"addr":0,"scheme":"x"}` + "\n",
		"string cycle":   `{"kind":"pcb-flush","cycle":"1","addr":0,"scheme":"x"}` + "\n",
		"empty scheme":   `{"kind":"pcb-flush","cycle":1,"addr":0,"scheme":""}` + "\n",
	}
	for name, line := range cases {
		n, err := DecodeJSONL(strings.NewReader(good+line), func(Event) {})
		if err == nil {
			t.Errorf("%s accepted: %s", name, line)
			continue
		}
		if n != 1 || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: validated %d events, error %q; want 1 and line 2", name, n, err)
		}
	}
}

func TestDecodeJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindPCBFlush, Cycle: 812, Addr: 0x100200, Aux: 9, Scheme: "thoth-wtsc"},
		{Kind: KindPUBEvict, Cycle: 901, Addr: 0x40, Aux: 0x100200, Scheme: "thoth-wtsc", Part: "ctr", Detail: "written-back"},
		{Kind: KindWPQDrain, Cycle: 950, Addr: 0x80, Aux: 120, Scheme: "thoth-wtsc", Detail: DrainAge},
	}
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	n, err := DecodeJSONL(bytes.NewReader(buf.Bytes()), func(e Event) { got = append(got, e) })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) || len(got) != len(events) {
		t.Fatalf("decoded %d/%d events, want %d", n, len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: decoded %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":      `{"kind":"warp-drive","cycle":1,"addr":0,"scheme":"x"}` + "\n",
		"undeclared kind":   `{"kind":"kind(12)","cycle":1,"addr":0,"scheme":"x"}` + "\n",
		"missing field":     `{"kind":"pcb-flush","cycle":1,"addr":0}` + "\n",
		"unknown field":     `{"kind":"pcb-flush","cycle":1,"addr":0,"scheme":"x","bogus":1}` + "\n",
		"negative cycle":    `{"kind":"pcb-flush","cycle":-1,"addr":0,"scheme":"x"}` + "\n",
		"empty scheme":      `{"kind":"pcb-flush","cycle":1,"addr":0,"scheme":""}` + "\n",
		"not a JSON object": "pcb-flush 812\n",
	}
	for name, line := range cases {
		delivered := 0
		if _, err := DecodeJSONL(strings.NewReader(line), func(Event) { delivered++ }); err == nil {
			t.Errorf("%s accepted: %s", name, line)
		}
		if delivered != 0 {
			t.Errorf("%s delivered %d events before failing", name, delivered)
		}
	}
}

package harness

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

func replayCfg() config.Config {
	return tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
}

func TestReplayBasicTrace(t *testing.T) {
	trace := `
# a tiny transaction
S 0x0 128
P 0x0 128
S 4096 256
P 4096 256
F
L 0x0 128
`
	res, err := Replay(replayCfg(), strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 6 {
		t.Fatalf("Ops = %d, want 6", res.Ops)
	}
	if res.Cycles <= 0 {
		t.Fatal("replay must consume cycles")
	}
	st := res.Stats.(*stats.Stats)
	if st.Writes(stats.WriteData) == 0 {
		t.Fatal("persists must write data blocks")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	cases := []string{
		"X 0 128",             // unknown op
		"S 0",                 // missing size
		"S zz 128",            // bad address
		"S 0 -5",              // bad size
		"S 0 999999999999999", // out of data region
		// Ranges whose end overflows int64: addr+size wraps negative.
		"S 0x7fffffffffffff80 128",
		"S 0x4000000000000000 4611686018427387904",
	}
	for _, c := range cases {
		if _, err := Replay(replayCfg(), strings.NewReader(c)); err == nil {
			t.Errorf("trace %q must be rejected", c)
		}
	}
}

func TestReplayMatchesSinkSemantics(t *testing.T) {
	// A replayed trace and the same operations issued directly through
	// the Runner must produce identical cycle counts and write totals.
	trace := strings.Builder{}
	for i := 0; i < 50; i++ {
		trace.WriteString("S 0x0 128\nP 0x0 128\nS 8192 128\nP 8192 128\nF\n")
	}
	res, err := Replay(replayCfg(), strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(RunConfig{Config: replayCfg()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.Store(0, 128)
		r.Persist(0, 128)
		r.Store(8192, 128)
		r.Persist(8192, 128)
		r.Fence()
	}
	r.Fence()
	if r.Now() != res.Cycles {
		t.Fatalf("replay cycles %d != direct cycles %d", res.Cycles, r.Now())
	}
}

package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestRunnerEventCounts pins the event stream of a runner through the
// measurement protocol Run uses (setup, warm-up, PUB prefill, stats
// reset), then two 200-transaction rounds. It folds every event through
// an obs.Func and requires exact per-kind counts, PUB evictions by half
// and Figure-3 outcome, WPQ drains by reason, the WPQ residency and PCB
// fill totals, and the PUB entry ages: a pub-evict event of part "ctr"
// whose aux is the addr of an earlier pcb-flush event was packed at that
// flush's cycle.
func TestRunnerEventCounts(t *testing.T) {
	cfg := config.Default().WithScheme(config.ThothWTSC)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 256 << 10
	cfg.LLCBytes = 1 << 20
	kinds := make(map[string]int64)
	evicts := make(map[string]int64) // part/outcome
	drains := make(map[string]int64) // reason
	flushAt := make(map[int64]int64) // PUB ring addr -> last flush cycle
	var resCount, resSum, fillCount, fillSum, ageCount, ageSum int64
	cfg.Tracer = obs.Func(func(e obs.Event) {
		kinds[e.Kind.String()]++
		switch e.Kind {
		case obs.KindPCBFlush:
			fillCount++
			fillSum += e.Aux
			flushAt[e.Addr] = e.Cycle
		case obs.KindPUBEvict:
			evicts[e.Part+"/"+e.Detail]++
			if at, ok := flushAt[e.Aux]; ok && e.Part == "ctr" {
				ageCount++
				ageSum += e.Cycle - at
			}
		case obs.KindWPQDrain:
			drains[e.Detail]++
			resCount++
			resSum += e.Aux
		}
	})
	r, err := NewRunner(RunConfig{
		Config:    cfg,
		Workload:  "btree",
		SetupKeys: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	r.RunTxs(100)
	if err := r.Controller().PrefillPUB(); err != nil {
		t.Fatal(err)
	}
	r.Controller().ResetStats()
	for range 2 {
		r.RunTxs(200)
	}

	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}
	for _, k := range obs.Kinds() {
		want := map[string]int64{
			"pcb-flush": 1926, "pub-evict": 5184, "wpq-drain": 13173,
			"ctr-overflow": 4, "cache-evict": 1,
		}[k.String()]
		check("events of kind "+k.String(), kinds[k.String()], want)
	}
	for key, want := range map[string]int64{
		"ctr/written-back": 24, "ctr/already-evicted": 0, "ctr/clean-copy": 2217, "ctr/stale-copy": 351,
		"mac/written-back": 97, "mac/already-evicted": 0, "mac/clean-copy": 2290, "mac/stale-copy": 205,
	} {
		check("pub-evict "+key, evicts[key], want)
	}
	for reason, want := range map[string]int64{
		obs.DrainWatermark: 3305, obs.DrainAge: 9868, obs.DrainStall: 0, obs.DrainFlush: 0,
	} {
		check("wpq-drain "+reason, drains[reason], want)
	}
	check("WPQ residency count", resCount, 13173)
	check("WPQ residency sum", resSum, 409943728)
	check("PCB fill count", fillCount, 1926)
	check("PCB fill sum", fillSum, 17334)
	check("PUB entry age count", ageCount, 2592)
	check("PUB entry age sum", ageSum, 31775607000)
}

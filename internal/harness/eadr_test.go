package harness

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

func TestEADRRemovesPersistCost(t *testing.T) {
	mk := func(eadr bool) *Result {
		cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
		cfg.EADR = eadr
		res, err := Run(RunConfig{Config: cfg, Workload: "btree",
			WarmupTxs: 60, MeasureTxs: 300, SetupKeys: 512})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	adr := mk(false)
	eadr := mk(true)
	if eadr.Cycles >= adr.Cycles {
		t.Fatalf("eADR (%d cyc) must be faster than ADR (%d cyc)", eadr.Cycles, adr.Cycles)
	}
	if eadr.Stats.TotalWrites() >= adr.Stats.TotalWrites() {
		t.Fatalf("eADR (%d writes) must write less than ADR (%d writes)",
			eadr.Stats.TotalWrites(), adr.Stats.TotalWrites())
	}
}

func TestEADRCrashFlushesAndRecovers(t *testing.T) {
	cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
	cfg.EADR = true
	r, err := NewRunner(RunConfig{Config: cfg, Workload: "hashmap", MeasureTxs: 1, SetupKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	r.RunTxs(300)
	if err := r.Crash(); err != nil { // eADR: flush everything; no PUB merge needed
		t.Fatal(err)
	}
	c2, err := core.Attach(cfg, r.Controller().Device())
	if err != nil {
		t.Fatal(err)
	}
	_ = c2
	// Every block the model persisted must read back correctly.
	n := 0
	err = r.model.eachPersisted(func(addr int64) error {
		_, got := c2.ReadBlock(0, addr)
		want := r.blockBytes(addr)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("block %#x corrupted across eADR crash", addr)
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("eADR crash must have flushed dirty lines")
	}
}

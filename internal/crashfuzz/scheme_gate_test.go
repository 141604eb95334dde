package crashfuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	thoth "repro"
	"repro/internal/config"
)

// schemeGoldenSeeds is how many crashfuzz seeds the refactor gate pins.
// Every seed runs under all three pre-existing schemes regardless of the
// scheme set its derivation picked, so the oracle covers WTSC, WTBC and
// the strict baseline uniformly.
const schemeGoldenSeeds = 50

// schemeGoldenFile is the committed pre-extraction oracle. It was
// generated BEFORE the PersistScheme interface extraction; the gate
// pins that the refactor changed zero bytes (crash image, recovered
// image, statistics, modeled cycles, recovery report) for the schemes
// that existed before it. Regenerate only for an INTENTIONAL behavior
// change:
//
//	SCHEME_GOLDEN_UPDATE=1 go test ./internal/crashfuzz -run TestSchemeRefactorGolden
const schemeGoldenFile = "testdata/scheme_golden.json"

// schemeGoldenRun is one (seed, scheme) execution's fingerprint.
type schemeGoldenRun struct {
	Scheme string `json:"scheme"`
	// CrashImage / RecoveredImage are sha256 hex digests of the
	// serialized device image at crash time and after recovery.
	CrashImage     string `json:"crashImage"`
	RecoveredImage string `json:"recoveredImage"`
	// Stats is the sha256 hex digest of the JSON-encoded statistics
	// snapshot taken just before the crash (Cycles included, pinning the
	// modeled timing).
	Stats string `json:"stats"`
	// Cycles is the modeled cycle count at the crash.
	Cycles int64 `json:"cycles"`
	// Report pins the recovery outcome.
	PUBBlocks    int64 `json:"pubBlocks"`
	PUBEntries   int64 `json:"pubEntries"`
	MergedCtr    int64 `json:"mergedCtr"`
	MergedMAC    int64 `json:"mergedMAC"`
	SkippedStale int64 `json:"skippedStale"`
	RootVerified bool  `json:"rootVerified"`
}

// schemeGoldenCase is one seed's fingerprints.
type schemeGoldenCase struct {
	Seed int64             `json:"seed"`
	Runs []schemeGoldenRun `json:"runs"`
}

// schemeGateFingerprint executes one seed under one scheme — trace
// prefix, crash, recovery — and fingerprints every observable artifact.
func schemeGateFingerprint(t *testing.T, seed int64, sch config.Scheme) schemeGoldenRun {
	t.Helper()
	c := DeriveCase(seed)
	cfg := c.ConfigFor(sch)
	sys, err := thoth.New(cfg)
	if err != nil {
		t.Fatalf("seed %d %v: new: %v", seed, sch, err)
	}
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = sys.Write(op.Addr, op.payload())
		case OpRead:
			_, err = sys.Read(op.Addr, op.Len)
		}
		if err != nil {
			t.Fatalf("seed %d %v: op %d: %v", seed, sch, i, err)
		}
	}
	snap := sys.Stats()
	statsJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("seed %d %v: marshal stats: %v", seed, sch, err)
	}
	img, err := sys.Crash()
	if err != nil {
		t.Fatalf("seed %d %v: crash: %v", seed, sch, err)
	}
	run := schemeGoldenRun{
		Scheme:     sch.String(),
		CrashImage: imageHash(t, img),
		Stats:      hex.EncodeToString(sha256sum(statsJSON)),
		Cycles:     snap.Cycles,
	}
	rep, err := thoth.Recover(cfg, img)
	if err != nil {
		t.Fatalf("seed %d %v: recover: %v", seed, sch, err)
	}
	run.RecoveredImage = imageHash(t, img)
	run.PUBBlocks = rep.PUBBlocks
	run.PUBEntries = rep.PUBEntries
	run.MergedCtr = rep.MergedCtr
	run.MergedMAC = rep.MergedMAC
	run.SkippedStale = rep.SkippedStale
	run.RootVerified = rep.RootVerified
	return run
}

func sha256sum(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// imageHash digests a device image through its deterministic serialized
// form (nvm Save walks written blocks in address order).
func imageHash(t *testing.T, dev *thoth.Device) string {
	t.Helper()
	h := sha256.New()
	if err := dev.Save(h); err != nil {
		t.Fatalf("save image: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSchemeRefactorGolden is the differential no-op refactor gate: it
// replays schemeGoldenSeeds crashfuzz seeds under each pre-extraction
// scheme and compares crash-image bytes, recovered-image bytes, the
// statistics snapshot, modeled cycles and the recovery report against
// the oracle committed before the PersistScheme interface extraction.
// Any divergence means the refactor was not a no-op for an existing
// scheme.
func TestSchemeRefactorGolden(t *testing.T) {
	schemes := []config.Scheme{config.ThothWTSC, config.ThothWTBC, config.BaselineStrict}

	fresh := make([]schemeGoldenCase, 0, schemeGoldenSeeds)
	for seed := int64(1); seed <= schemeGoldenSeeds; seed++ {
		gc := schemeGoldenCase{Seed: seed}
		for _, sch := range schemes {
			gc.Runs = append(gc.Runs, schemeGateFingerprint(t, seed, sch))
		}
		fresh = append(fresh, gc)
	}

	if os.Getenv("SCHEME_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(schemeGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(fresh, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schemeGoldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d seeds x %d schemes)", schemeGoldenFile, schemeGoldenSeeds, len(schemes))
		return
	}

	raw, err := os.ReadFile(schemeGoldenFile)
	if err != nil {
		t.Fatalf("missing pre-extraction oracle %s (generate with SCHEME_GOLDEN_UPDATE=1): %v", schemeGoldenFile, err)
	}
	var want []schemeGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", schemeGoldenFile, err)
	}
	if len(want) != len(fresh) {
		t.Fatalf("oracle has %d seeds, gate ran %d", len(want), len(fresh))
	}
	for i := range want {
		w, g := want[i], fresh[i]
		if w.Seed != g.Seed {
			t.Fatalf("case %d: oracle seed %d vs run seed %d", i, w.Seed, g.Seed)
		}
		for j := range w.Runs {
			wr, gr := w.Runs[j], g.Runs[j]
			if wr != gr {
				t.Errorf("seed %d scheme %s diverged from the pre-extraction oracle:\n  want %+v\n  got  %+v",
					w.Seed, wr.Scheme, wr, gr)
			}
		}
	}
	if t.Failed() {
		t.Log("the PersistScheme extraction must be byte-identical for pre-existing schemes; " +
			"reproduce one seed with crashfuzz.Replay(seed)")
	}
}

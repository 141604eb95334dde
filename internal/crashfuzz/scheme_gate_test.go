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

// schemeGoldenSeeds is how many crashfuzz seeds the scheme gate pins.
// Every seed runs under every variant of schemeGoldenVariants
// regardless of the scheme set its derivation picked, so the oracle
// covers all five schemes and both PCB arrangements uniformly.
const schemeGoldenSeeds = 50

// schemeGoldenVariants are the pinned configurations, in oracle order.
// The first three were pinned before the others existed; new variants
// are appended so the older fingerprints never move.
var schemeGoldenVariants = []struct {
	label       string
	scheme      config.Scheme
	pcbAfterWPQ bool
}{
	{"thoth-wtsc", config.ThothWTSC, false},
	{"thoth-wtbc", config.ThothWTBC, false},
	{"baseline-strict", config.BaselineStrict, false},
	{"anubis-ecc", config.AnubisECC, false},
	{"triad-relaxed-8", config.TriadRelaxed(8), false},
	{"thoth-wtsc/pcb-after-wpq", config.ThothWTSC, true},
}

// schemeGoldenFile is the committed oracle. It pins every persistence
// policy's observable behavior (crash image, recovered image,
// statistics, modeled cycles, recovery report), so a refactor of the
// persist, PUB-eviction or recovery paths must change zero bytes.
// Regenerate only for an INTENTIONAL behavior change:
//
//	SCHEME_GOLDEN_UPDATE=1 go test ./internal/crashfuzz -run TestSchemeRefactorGolden
const schemeGoldenFile = "testdata/scheme_golden.json"

// schemeGoldenRun is one (seed, variant) execution's fingerprint.
type schemeGoldenRun struct {
	// Scheme is the variant's label: the scheme name, suffixed with
	// "/pcb-after-wpq" under that arrangement.
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

// schemeGateFingerprint executes one seed under one variant — trace
// prefix, crash, recovery — and fingerprints every observable artifact.
func schemeGateFingerprint(t *testing.T, seed int64, label string, sch config.Scheme, pcbAfterWPQ bool) schemeGoldenRun {
	t.Helper()
	c := DeriveCase(seed)
	cfg := c.ConfigFor(sch)
	cfg.PCBAfterWPQ = pcbAfterWPQ
	sys, err := thoth.New(cfg)
	if err != nil {
		t.Fatalf("seed %d %s: new: %v", seed, label, err)
	}
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = sys.Write(op.Addr, op.payload())
		case OpRead:
			_, err = sys.Read(op.Addr, op.Len)
		}
		if err != nil {
			t.Fatalf("seed %d %s: op %d: %v", seed, label, i, err)
		}
	}
	snap := sys.Stats()
	statsJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("seed %d %s: marshal stats: %v", seed, label, err)
	}
	img, err := sys.Crash()
	if err != nil {
		t.Fatalf("seed %d %s: crash: %v", seed, label, err)
	}
	run := schemeGoldenRun{
		Scheme:     label,
		CrashImage: imageHash(t, img),
		Stats:      hex.EncodeToString(sha256sum(statsJSON)),
		Cycles:     snap.Cycles,
	}
	rep, err := thoth.Recover(cfg, img)
	if err != nil {
		t.Fatalf("seed %d %s: recover: %v", seed, label, err)
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
// replays schemeGoldenSeeds crashfuzz seeds under every variant of
// schemeGoldenVariants and compares crash-image bytes, recovered-image
// bytes, the statistics snapshot, modeled cycles and the recovery
// report against the committed oracle. Any divergence means a change
// meant as a refactor altered a persistence policy's behavior.
func TestSchemeRefactorGolden(t *testing.T) {
	fresh := make([]schemeGoldenCase, 0, schemeGoldenSeeds)
	for seed := int64(1); seed <= schemeGoldenSeeds; seed++ {
		gc := schemeGoldenCase{Seed: seed}
		for _, v := range schemeGoldenVariants {
			gc.Runs = append(gc.Runs, schemeGateFingerprint(t, seed, v.label, v.scheme, v.pcbAfterWPQ))
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
		t.Logf("wrote %s (%d seeds x %d variants)", schemeGoldenFile, schemeGoldenSeeds, len(schemeGoldenVariants))
		return
	}

	raw, err := os.ReadFile(schemeGoldenFile)
	if err != nil {
		t.Fatalf("missing oracle %s (generate with SCHEME_GOLDEN_UPDATE=1): %v", schemeGoldenFile, err)
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
		if len(w.Runs) != len(g.Runs) {
			t.Fatalf("seed %d: oracle holds %d runs, gate ran %d", w.Seed, len(w.Runs), len(g.Runs))
		}
		for j := range w.Runs {
			wr, gr := w.Runs[j], g.Runs[j]
			if wr != gr {
				t.Errorf("seed %d variant %s diverged from the oracle:\n  want %+v\n  got  %+v",
					w.Seed, wr.Scheme, wr, gr)
			}
		}
	}
	if t.Failed() {
		t.Log("a refactor must leave every persistence policy byte-identical; " +
			"reproduce one seed with crashfuzz.Replay(seed)")
	}
}

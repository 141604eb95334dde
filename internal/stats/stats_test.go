package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteAccounting(t *testing.T) {
	var s Stats
	s.AddWrite(WriteData)
	s.AddWrite(WriteData)
	s.AddWrite(WriteCounter)
	s.AddWrite(WriteMAC)
	if got := s.TotalWrites(); got != 4 {
		t.Fatalf("TotalWrites = %d, want 4", got)
	}
	if got := s.Writes(WriteData); got != 2 {
		t.Fatalf("Writes(data) = %d, want 2", got)
	}
	if got := s.WriteShare(WriteData); got != 0.5 {
		t.Fatalf("WriteShare(data) = %g, want 0.5", got)
	}
}

func TestEmptySharesAreZero(t *testing.T) {
	var s Stats
	if s.WriteShare(WriteData) != 0 || s.EvictShare(EvictStaleCopy) != 0 ||
		s.PCBMergeRate() != 0 || s.CtrHitRate() != 0 || s.LLCHitRate() != 0 {
		t.Error("empty stats must report zero shares, not NaN")
	}
}

func TestEvictOutcomeAccounting(t *testing.T) {
	var s Stats
	for i := 0; i < 3; i++ {
		s.AddEvict(EvictStaleCopy)
	}
	s.AddEvict(EvictWrittenBack)
	if got := s.TotalEvicts(); got != 4 {
		t.Fatalf("TotalEvicts = %d, want 4", got)
	}
	if got := s.EvictShare(EvictStaleCopy); got != 0.75 {
		t.Fatalf("EvictShare(stale) = %g, want 0.75", got)
	}
}

func TestPCBMergeRate(t *testing.T) {
	s := Stats{PCBMerged: 3, PCBInserted: 1}
	if got := s.PCBMergeRate(); got != 0.75 {
		t.Fatalf("PCBMergeRate = %g, want 0.75", got)
	}
}

func TestHitRates(t *testing.T) {
	s := Stats{CtrHits: 9, CtrMisses: 1, MACHits: 1, MACMisses: 3}
	if got := s.CtrHitRate(); got != 0.9 {
		t.Fatalf("CtrHitRate = %g, want 0.9", got)
	}
	if got := s.MACHitRate(); got != 0.25 {
		t.Fatalf("MACHitRate = %g, want 0.25", got)
	}
}

func TestCategoryAndOutcomeStrings(t *testing.T) {
	for c, want := range map[WriteCategory]string{
		WriteData: "data", WriteCounter: "counter", WriteMAC: "mac",
		WritePCB: "pcb", WriteTree: "tree", WriteOther: "other",
	} {
		if c.String() != want {
			t.Errorf("WriteCategory %d = %q, want %q", int(c), c.String(), want)
		}
	}
	for o, want := range map[EvictOutcome]string{
		EvictWrittenBack: "written-back", EvictAlreadyEvicted: "already-evicted",
		EvictCleanCopy: "clean-copy", EvictStaleCopy: "stale-copy",
	} {
		if o.String() != want {
			t.Errorf("EvictOutcome %d = %q, want %q", int(o), o.String(), want)
		}
	}
}

func TestStringReport(t *testing.T) {
	var s Stats
	s.Cycles = 100
	s.AddWrite(WriteData)
	s.AddEvict(EvictStaleCopy)
	out := s.String()
	for _, want := range []string{"cycles=100", "data=1", "stale-copy=100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// Add must be the exact inverse of Sub field-by-field: (a.Add(b)).Sub(b)
// == a for arbitrary snapshots, so pooled stats merged with Add can be
// decomposed with Sub without drift. Exercised over the exported fields
// plus the unexported write/evict tallies.
func TestAddInvertsSub(t *testing.T) {
	var a, b Stats
	a.Cycles, b.Cycles = 100, 7
	a.Transactions, b.Transactions = 10, 3
	a.NVMReads, b.NVMReads = 5, 11
	a.WPQStallCycles, b.WPQStallCycles = 2, 9
	a.PCBMerged, b.PCBMerged = 4, 1
	a.CtrOverflows, b.CtrOverflows = 1, 1
	a.AddWrite(WriteData)
	a.AddWrite(WriteCounter)
	b.AddWrite(WriteData)
	a.AddEvict(EvictStaleCopy)
	b.AddEvict(EvictWrittenBack)

	sum := a.Add(b)
	if got, want := sum.TotalWrites(), a.TotalWrites()+b.TotalWrites(); got != want {
		t.Fatalf("sum.TotalWrites = %d, want %d", got, want)
	}
	if got, want := sum.TotalEvicts(), a.TotalEvicts()+b.TotalEvicts(); got != want {
		t.Fatalf("sum.TotalEvicts = %d, want %d", got, want)
	}
	if back := sum.Sub(b); back != a {
		t.Fatalf("Add then Sub is not identity:\n got %+v\nwant %+v", back, a)
	}
}

// Property: write shares always sum to 1 when any writes exist, and each
// share is within [0,1].
func TestWriteSharesSumToOne(t *testing.T) {
	f := func(counts [6]uint8) bool {
		var s Stats
		total := 0
		for c, n := range counts {
			for i := 0; i < int(n); i++ {
				s.AddWrite(WriteCategory(c))
				total++
			}
		}
		if total == 0 {
			return s.TotalWrites() == 0
		}
		var sum float64
		for c := WriteCategory(0); c < numWriteCategories; c++ {
			sh := s.WriteShare(c)
			if sh < 0 || sh > 1 {
				return false
			}
			sum += sh
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package workload

import "testing"

// hashSink folds the complete operation stream — kind tags, addresses,
// sizes, and fence ordering — into one FNV-1a value. Unlike
// CountingSink it is order-sensitive: any reordering, dropped op, or
// changed address perturbs the hash.
type hashSink struct{ h uint64 }

func newHashSink() *hashSink { return &hashSink{h: 14695981039346656037} }

func (s *hashSink) mix(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			s.h ^= v & 0xff
			s.h *= 1099511628211
			v >>= 8
		}
	}
}

func (s *hashSink) Load(addr, size int64)    { s.mix(1, uint64(addr), uint64(size)) }
func (s *hashSink) Store(addr, size int64)   { s.mix(2, uint64(addr), uint64(size)) }
func (s *hashSink) Persist(addr, size int64) { s.mix(3, uint64(addr), uint64(size)) }
func (s *hashSink) Fence()                   { s.mix(4) }

// opStreamHash runs setup plus txs transactions and returns the stream
// hash.
func opStreamHash(t *testing.T, name string, seed int64, txs int) uint64 {
	t.Helper()
	w, err := New(name, Params{HeapSize: testHeap, TxSize: 128, Seed: seed, SetupKeys: 2048})
	if err != nil {
		t.Fatal(err)
	}
	s := newHashSink()
	w.Setup(s)
	for i := 0; i < txs; i++ {
		w.Tx(s)
	}
	return s.h
}

// goldenStreams pins the exact operation stream of each generator at
// seed 42, 128B transactions, 2048 setup keys, 200 transactions. The
// pairwise TestDeterminism catches nondeterminism within one build;
// these constants catch silent drift of the generators themselves —
// any change to key picking, allocation order, undo-log discipline or
// payload layout lands here and must be a conscious decision (rerun
// the test; the failure message prints the new hash to commit).
var goldenStreams = map[string]uint64{
	"btree":  0x436c04d694dd9ea1,
	"ctree":  0xe0616c1cabde27b5,
	"rbtree": 0x46d720f1e7b47c0b,
}

func TestGoldenSeedStreams(t *testing.T) {
	for _, name := range []string{"btree", "ctree", "rbtree"} {
		t.Run(name, func(t *testing.T) {
			got := opStreamHash(t, name, 42, 200)
			if again := opStreamHash(t, name, 42, 200); again != got {
				t.Fatalf("same-seed reruns hash differently: %#x vs %#x", got, again)
			}
			if other := opStreamHash(t, name, 43, 200); other == got {
				t.Fatalf("seeds 42 and 43 hash identically (%#x): seed is ignored", got)
			}
			want, ok := goldenStreams[name]
			if !ok {
				t.Fatalf("no golden hash for %s; add %#x", name, got)
			}
			if got != want {
				t.Fatalf("op stream drifted: hash %#x, golden %#x — if the "+
					"generator change is intentional, update goldenStreams", got, want)
			}
		})
	}
}

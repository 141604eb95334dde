package workload

import (
	"testing"
	"testing/quick"
)

const testHeap = 512 << 20

func mk(t *testing.T, name string, txSize int, seed int64) Workload {
	t.Helper()
	w, err := New(name, Params{HeapSize: testHeap, TxSize: txSize, Seed: seed, SetupKeys: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New("nosuch", Params{HeapSize: testHeap, TxSize: 128, Seed: 1}); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := New("btree", Params{HeapSize: testHeap, Seed: 1}); err == nil {
		t.Error("zero tx size must error")
	}
	if _, err := New("btree", Params{HeapSize: 100, TxSize: 128, Seed: 1}); err == nil {
		t.Error("tiny heap must error")
	}
	if _, err := New("btree", Params{HeapSize: testHeap, TxSize: 128, SetupKeys: -1}); err == nil {
		t.Error("negative setup keys must error")
	}
}

func TestAllBenchmarksRun(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w := mk(t, name, 128, 7)
			s := NewCountingSink()
			w.Setup(s)
			setupStores := s.Stores
			for i := 0; i < 500; i++ {
				w.Tx(s)
			}
			if s.Stores == setupStores {
				t.Error("transactions must store data")
			}
			if s.Persists == 0 || s.Fences == 0 {
				t.Error("transactions must persist and fence")
			}
			if w.Footprint() <= 0 {
				t.Error("footprint must be positive")
			}
			if w.Footprint() > testHeap {
				t.Error("footprint exceeds heap")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := mk(t, name, 128, 42)
		b := mk(t, name, 128, 42)
		sa, sb := NewCountingSink(), NewCountingSink()
		a.Setup(sa)
		b.Setup(sb)
		for i := 0; i < 300; i++ {
			a.Tx(sa)
			b.Tx(sb)
		}
		if sa.Stores != sb.Stores || sa.StoreBytes != sb.StoreBytes ||
			sa.Loads != sb.Loads || sa.Persists != sb.Persists {
			t.Errorf("%s: same seed produced different traces", name)
		}
		ta, tb := sa.TouchedBlocks(), sb.TouchedBlocks()
		if len(ta) != len(tb) {
			t.Errorf("%s: different touched sets", name)
			continue
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Errorf("%s: touched sets diverge at %d", name, i)
				break
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := mk(t, "btree", 128, 1)
	b := mk(t, "btree", 128, 2)
	sa, sb := NewCountingSink(), NewCountingSink()
	a.Setup(sa)
	b.Setup(sb)
	if sa.Stores == sb.Stores && sa.Loads == sb.Loads && sa.StoreBytes == sb.StoreBytes {
		// Extremely unlikely for different key sequences.
		t.Error("different seeds produced identical traces")
	}
}

func TestTxSizeScalesPayload(t *testing.T) {
	for _, name := range Names() {
		small := mk(t, name, 128, 5)
		large := mk(t, name, 2048, 5)
		ss, sl := NewCountingSink(), NewCountingSink()
		small.Setup(ss)
		large.Setup(sl)
		base, baseL := ss.StoreBytes, sl.StoreBytes
		for i := 0; i < 200; i++ {
			small.Tx(ss)
			large.Tx(sl)
		}
		if sl.StoreBytes-baseL <= ss.StoreBytes-base {
			t.Errorf("%s: 2048B transactions must write more than 128B ones", name)
		}
	}
}

func TestBTreeInvariants(t *testing.T) {
	w := mk(t, "btree", 128, 11).(*bTree)
	s := NewCountingSink()
	w.Setup(s)
	for i := 0; i < 2000; i++ {
		w.Tx(s)
	}
	if !w.checkSorted() {
		t.Fatal("B-tree keys out of order")
	}
	if d := w.Depth(); d < 2 || d > 12 {
		t.Fatalf("B-tree depth %d out of plausible range", d)
	}
	if len(w.vals) == 0 {
		t.Fatal("B-tree is empty after inserts")
	}
	for key := range w.vals {
		if !w.Get(key) {
			t.Fatalf("inserted key %d not found", key)
		}
		break
	}
}

func TestRBTreeInvariants(t *testing.T) {
	w := mk(t, "rbtree", 128, 13).(*rbTree)
	s := NewCountingSink()
	w.Setup(s)
	for i := 0; i < 2000; i++ {
		w.Tx(s)
	}
	if w.checkRB() == -1 {
		t.Fatal("red-black invariants violated")
	}
	if w.size < 2048/4 {
		t.Fatalf("tree size %d implausibly small", w.size)
	}
}

func TestCTreeInvariants(t *testing.T) {
	w := mk(t, "ctree", 128, 17).(*cTree)
	s := NewCountingSink()
	w.Setup(s)
	for i := 0; i < 2000; i++ {
		w.Tx(s)
	}
	if !w.checkStructure() {
		t.Fatal("crit-bit structure violated")
	}
	if w.size < 2048/4 {
		t.Fatalf("tree size %d implausibly small", w.size)
	}
}

func TestHashmapFunctional(t *testing.T) {
	w := mk(t, "hashmap", 128, 19).(*hashmap)
	s := NewCountingSink()
	w.Setup(s)
	if w.Len() == 0 {
		t.Fatal("hashmap empty after setup")
	}
	before := w.Len()
	for i := 0; i < 2000; i++ {
		w.Tx(s)
	}
	if w.Len() < before {
		t.Fatal("hashmap shrank under put-only load")
	}
}

func TestSwapTouchesFewBlocks(t *testing.T) {
	// The paper's swap rationale: it "touches few memory locations".
	sw := mk(t, "swap", 128, 23)
	bt := mk(t, "btree", 128, 23)
	ss, sb := NewCountingSink(), NewCountingSink()
	sw.Setup(ss)
	bt.Setup(sb)
	for i := 0; i < 1000; i++ {
		sw.Tx(ss)
		bt.Tx(sb)
	}
	if len(ss.TouchedBlocks()) >= len(sb.TouchedBlocks()) {
		t.Errorf("swap touched %d blocks, btree %d; swap must touch fewer",
			len(ss.TouchedBlocks()), len(sb.TouchedBlocks()))
	}
}

func TestSwapCountsTransactions(t *testing.T) {
	w := mk(t, "swap", 128, 29).(*swapBench)
	s := NewCountingSink()
	w.Setup(s)
	for i := 0; i < 500; i++ {
		w.Tx(s)
	}
	if w.Swaps() != 500 {
		t.Fatalf("swap count = %d, want 500", w.Swaps())
	}
}

func TestHeapAllocAlignment(t *testing.T) {
	h := newHeap(0, 1<<20)
	for _, n := range []int64{1, 63, 64, 65, 512} {
		a := h.alloc(n)
		if a%64 != 0 {
			t.Fatalf("alloc(%d) returned unaligned %#x", n, a)
		}
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	h := newHeap(0, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted heap must panic")
		}
	}()
	for {
		h.alloc(4096)
	}
}

func TestUndoLogWraps(t *testing.T) {
	h := newHeap(0, 1<<20)
	lg := newUndoLog(h, 4096)
	s := NewCountingSink()
	// Append far more than the log size: must wrap, not panic, and all
	// stores must land inside the log region or the commit record.
	for i := 0; i < 100; i++ {
		lg.logOld(s, 512)
	}
	for _, a := range s.TouchedBlocks() {
		if a < lg.base || a >= lg.base+lg.size {
			t.Fatalf("log store at %#x escaped the log region [%#x,%#x)", a, lg.base, lg.base+lg.size)
		}
	}
}

// Property: every store of every benchmark stays inside the heap bounds.
func TestStoresStayInHeapProperty(t *testing.T) {
	f := func(pick uint8, txRaw uint8, seed int16) bool {
		names := Names()
		name := names[int(pick)%len(names)]
		txSize := []int{128, 512, 1024, 2048}[int(txRaw)%4]
		w, err := New(name, Params{HeapBase: 1 << 20, HeapSize: testHeap, TxSize: txSize, Seed: int64(seed), SetupKeys: 512})
		if err != nil {
			return false
		}
		ok := true
		s := &boundsSink{lo: 1 << 20, hi: 1<<20 + testHeap, ok: &ok}
		w.Setup(s)
		for i := 0; i < 50; i++ {
			w.Tx(s)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

type boundsSink struct {
	lo, hi int64
	ok     *bool
}

func (b *boundsSink) Load(addr, size int64) {
	if addr < b.lo || addr+size > b.hi {
		*b.ok = false
	}
}
func (b *boundsSink) Store(addr, size int64)   { b.Load(addr, size) }
func (b *boundsSink) Persist(addr, size int64) { b.Load(addr, size) }
func (b *boundsSink) Fence()                   {}

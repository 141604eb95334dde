package pub

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/layout"
	"repro/internal/nvm"
)

func TestEntriesPerBlockMatchesPaper(t *testing.T) {
	if got := EntriesPerBlock(128); got != 9 {
		t.Errorf("128B block holds %d entries, want 9", got)
	}
	if got := EntriesPerBlock(256); got != 19 {
		t.Errorf("256B block holds %d entries, want 19", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	n := EntriesPerBlock(128)
	in := make([]Entry, n)
	for i := range in {
		in[i] = Entry{
			BlockIndex: uint32(i * 1000003),
			MAC2:       uint64(i) * 0x9E3779B97F4A7C15,
			Minor:      uint8(i % 128),
			Status:     uint8(i % 4),
		}
	}
	out := UnpackBlock(128, PackBlock(128, in))
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestPackRejectsBadEntries(t *testing.T) {
	n := EntriesPerBlock(128)
	good := make([]Entry, n)
	cases := []struct {
		name string
		mut  func([]Entry) []Entry
	}{
		{"wrong count", func(e []Entry) []Entry { return e[:n-1] }},
		{"minor too big", func(e []Entry) []Entry { e[0].Minor = 128; return e }},
		{"status too big", func(e []Entry) []Entry { e[0].Status = 4; return e }},
	}
	for _, tc := range cases {
		es := append([]Entry(nil), good...)
		es = tc.mut(es)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			PackBlock(128, es)
		}()
	}
}

func TestFillByDuplication(t *testing.T) {
	in := []Entry{{BlockIndex: 1}, {BlockIndex: 2}}
	out := FillByDuplication(in, 9)
	if len(out) != 9 {
		t.Fatalf("len = %d, want 9", len(out))
	}
	for i, e := range out {
		if e.BlockIndex != in[i%2].BlockIndex {
			t.Fatalf("slot %d holds %d, want cyclic duplication", i, e.BlockIndex)
		}
	}
	for _, f := range []func(){
		func() { FillByDuplication(nil, 9) },
		func() { FillByDuplication(make([]Entry, 10), 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func newRing(t *testing.T) (*Ring, *layout.Layout, *nvm.Device) {
	t.Helper()
	cfg := config.Default()
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 8 * 128 // tiny ring: 8 blocks
	cfg.PCBEntries = 2
	lay, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.New(lay.Total, cfg.BlockSize)
	return NewRing(lay, dev), lay, dev
}

func TestRingFIFO(t *testing.T) {
	r, _, _ := newRing(t)
	if !r.Empty() || r.Full() {
		t.Fatal("fresh ring must be empty")
	}
	mk := func(tag byte) []byte {
		b := make([]byte, 128)
		b[0] = tag
		return b
	}
	for i := byte(1); i <= 3; i++ {
		r.Push(mk(i))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for i := byte(1); i <= 3; i++ {
		blk, _ := r.Pop()
		if blk[0] != i {
			t.Fatalf("pop %d returned tag %d (FIFO violated)", i, blk[0])
		}
	}
}

func TestRingWrapsAround(t *testing.T) {
	r, lay, _ := newRing(t)
	blk := make([]byte, 128)
	// Fill, drain, and refill past the physical end.
	for i := 0; i < 8; i++ {
		r.Push(blk)
	}
	if !r.Full() {
		t.Fatal("ring must be full after capacity pushes")
	}
	for i := 0; i < 5; i++ {
		r.Pop()
	}
	var lastAddr int64 = -1
	for i := 0; i < 5; i++ {
		blk[0] = byte(100 + i)
		lastAddr = r.Push(blk)
	}
	if lastAddr < lay.PUBBase || lastAddr >= lay.PUBBase+lay.PUBBytes {
		t.Fatalf("wrapped push landed at %#x outside the PUB region", lastAddr)
	}
	// FIFO order must survive the wrap.
	for i := 0; i < 3; i++ {
		r.Pop()
	}
	got, _ := r.Pop()
	if got[0] != 100 {
		t.Fatalf("post-wrap pop tag = %d, want 100", got[0])
	}
}

func TestRingPanicsOnMisuse(t *testing.T) {
	r, _, _ := newRing(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pop on empty must panic")
			}
		}()
		r.Pop()
	}()
	blk := make([]byte, 128)
	for i := 0; i < 8; i++ {
		r.Push(blk)
	}
	defer func() {
		if recover() == nil {
			t.Error("push on full must panic")
		}
	}()
	r.Push(blk)
}

func TestRingCtlRoundTrip(t *testing.T) {
	r, lay, dev := newRing(t)
	blk := make([]byte, 128)
	for i := 0; i < 5; i++ {
		r.Push(blk)
	}
	r.Pop()
	r.SaveCtl()

	r2 := NewRing(lay, dev)
	if err := r2.LoadCtl(); err != nil {
		t.Fatalf("LoadCtl: %v", err)
	}
	if r2.Len() != 4 {
		t.Fatalf("restored Len = %d, want 4", r2.Len())
	}
	// PeekAll sees the same blocks without consuming.
	if got := len(r2.PeekAll()); got != 4 {
		t.Fatalf("PeekAll = %d blocks, want 4", got)
	}
	if r2.Len() != 4 {
		t.Fatal("PeekAll must not consume")
	}
}

// TestRingWrapAroundSustained drives the ring through several full laps
// of its physical capacity with a live window that straddles the wrap
// boundary, checking FIFO order, PeekAll, and — the crash-consistency
// half — that SaveCtl/LoadCtl round-trip the wrapped sequence numbers
// and a recovery-style scan-and-merge over the restored ring sees every
// live entry oldest-first.
func TestRingWrapAroundSustained(t *testing.T) {
	r, lay, dev := newRing(t)
	capacity := r.Capacity()
	n := EntriesPerBlock(128)

	mkBlock := func(seq int64) []byte {
		es := make([]Entry, n)
		for j := range es {
			es[j] = Entry{
				BlockIndex: uint32(seq)*64 + uint32(j),
				MAC2:       uint64(seq)<<8 | uint64(j),
				Minor:      uint8(seq % 128),
			}
		}
		return PackBlock(128, es)
	}
	checkBlock := func(blk []byte, seq int64) {
		t.Helper()
		es := UnpackBlock(128, blk)
		if es[0].BlockIndex != uint32(seq)*64 || es[0].Minor != uint8(seq%128) {
			t.Fatalf("block for seq %d holds entry %+v", seq, es[0])
		}
	}

	var pushSeq, popSeq int64
	push := func() { r.Push(mkBlock(pushSeq)); pushSeq++ }
	pop := func() {
		t.Helper()
		blk, addr := r.Pop()
		if addr < lay.PUBBase || addr >= lay.PUBBase+lay.PUBBytes {
			t.Fatalf("pop address %#x outside the PUB region", addr)
		}
		checkBlock(blk, popSeq)
		popSeq++
	}

	for i := int64(0); i < 5; i++ {
		push()
	}
	for lap := int64(0); lap < 5; lap++ {
		for i := int64(0); i < capacity; i++ {
			push()
			pop()
		}
	}
	if pushSeq < 4*capacity {
		t.Fatalf("test must wrap several times: pushed %d blocks, capacity %d", pushSeq, capacity)
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}

	// PeekAll returns the live window oldest-first without consuming.
	peek := r.PeekAll()
	if int64(len(peek)) != r.Len() {
		t.Fatalf("PeekAll = %d blocks, want %d", len(peek), r.Len())
	}
	for i, blk := range peek {
		checkBlock(blk, popSeq+int64(i))
	}

	// Persist the wrapped bounds (both well past capacity), restore into
	// a fresh ring over the same device, and merge like recovery does:
	// oldest entry to youngest, later occurrences winning.
	r.SaveCtl()
	r2 := NewRing(lay, dev)
	if err := r2.LoadCtl(); err != nil {
		t.Fatalf("LoadCtl of wrapped bounds: %v", err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("restored Len = %d, want %d", r2.Len(), r.Len())
	}
	merged := map[uint32]Entry{}
	reads := dev.TotalReads()
	seq := popSeq
	r2.Scan(func(entries []Entry) bool {
		if entries[0].BlockIndex != uint32(seq)*64 {
			t.Fatalf("Scan visited seq %d out of order: %+v", seq, entries[0])
		}
		seq++
		for _, e := range entries {
			merged[e.BlockIndex] = e
		}
		return true
	})
	if len(merged) != int(r2.Len())*n {
		t.Fatalf("merged %d entries, want %d", len(merged), int(r2.Len())*n)
	}
	if got := dev.TotalReads() - reads; got != r2.Len() {
		t.Fatalf("Scan counted %d device reads over %d blocks, want one per block", got, r2.Len())
	}
	reads = dev.TotalReads()
	visited := 0
	r2.Scan(func([]Entry) bool {
		visited++
		return visited < 2
	})
	if got := dev.TotalReads() - reads; visited != 2 || got != 2 {
		t.Fatalf("Scan stopped by fn after %d blocks and %d device reads, want 2 and 2", visited, got)
	}

	// Draining the restored ring continues the same FIFO sequence.
	for !r2.Empty() {
		blk, _ := r2.Pop()
		checkBlock(blk, popSeq)
		popSeq++
	}
	if popSeq != pushSeq {
		t.Fatalf("drained through seq %d, want %d", popSeq, pushSeq)
	}
}

// TestRingLoadCtlRejectsOverfullBounds pins the validation in LoadCtl:
// control bounds claiming more live blocks than the ring holds must be
// treated as corruption, not silently adopted.
func TestRingLoadCtlRejectsOverfullBounds(t *testing.T) {
	r, lay, dev := newRing(t)
	blk := make([]byte, 128)
	binary.LittleEndian.PutUint64(blk[0:8], ctlMagic)
	binary.LittleEndian.PutUint64(blk[8:16], 0)
	binary.LittleEndian.PutUint64(blk[16:24], uint64(r.Capacity()+1))
	dev.WriteBlock(lay.CtlBase, blk)
	if err := r.LoadCtl(); err == nil {
		t.Fatal("bounds exceeding capacity must be rejected")
	}
}

func TestRingLoadCtlRejectsGarbage(t *testing.T) {
	r, _, _ := newRing(t)
	if err := r.LoadCtl(); err == nil {
		t.Fatal("LoadCtl on a fresh device must fail (no magic)")
	}
}

func TestPCBAppendOpensBlocks(t *testing.T) {
	p := NewPCB(8, 3)
	for i := uint32(0); i < 7; i++ {
		if p.TryMerge(Entry{BlockIndex: i}) {
			t.Fatal("distinct blocks must not merge")
		}
		p.Append(Entry{BlockIndex: i})
	}
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
	if p.Occupancy() != 3 { // ceil(7/3) blocks
		t.Fatalf("Occupancy = %d, want 3", p.Occupancy())
	}
}

func TestPCBMergesAcrossUnpostedBlocks(t *testing.T) {
	// The merge window spans every unposted block, not just the active
	// accumulator (Section IV-C's augmented PCB).
	p := NewPCB(8, 3)
	for i := uint32(0); i < 7; i++ {
		p.Append(Entry{BlockIndex: i, Minor: 1})
	}
	// BlockIndex 0 lives in the OLDEST block; it must still merge.
	if !p.TryMerge(Entry{BlockIndex: 0, Minor: 2}) {
		t.Fatal("merge must reach older unposted blocks")
	}
	if p.MergeRate() == 0 {
		t.Fatal("merge rate must count the merge")
	}
}

func TestPCBMergeKeepsNewestValuesAndANDsStatus(t *testing.T) {
	p := NewPCB(8, 9)
	p.Append(Entry{BlockIndex: 5, MAC2: 100, Minor: 1, Status: 0}) // responsible
	if !p.TryMerge(Entry{BlockIndex: 5, MAC2: 200, Minor: 2, Status: StatusCtrWasDirty | StatusMACWasDirty}) {
		t.Fatal("same-block insert must merge")
	}
	got := p.DrainAll()
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1", len(got))
	}
	e := got[0]
	if e.MAC2 != 200 || e.Minor != 2 {
		t.Fatalf("merged entry = %+v, want newest values", e)
	}
	if e.Status != 0 {
		t.Fatalf("merged status = %b, want 0 (responsibility must survive merge)", e.Status)
	}
	if p.MergeRate() != 0.5 {
		t.Fatalf("merge rate = %g, want 0.5", p.MergeRate())
	}
}

func TestPCBWatermarkAndPosting(t *testing.T) {
	p := NewPCB(8, 2) // watermark 4
	for i := uint32(0); i < 8; i++ {
		p.Append(Entry{BlockIndex: i})
	}
	// 4 full blocks, at the watermark boundary: 4 > 4 is false.
	if p.OverWatermark() {
		t.Fatal("at watermark must not trigger")
	}
	p.Append(Entry{BlockIndex: 100})
	if !p.OverWatermark() {
		t.Fatal("5 unposted blocks with watermark 4 must trigger")
	}
	blk := p.PopPostable()
	if len(blk) != 2 || blk[0].BlockIndex != 0 {
		t.Fatalf("PopPostable = %+v, want the oldest full block", blk)
	}
	p.AddPending()
	if p.Occupancy() != 5 { // 4 unposted + 1 pending
		t.Fatalf("Occupancy = %d, want 5", p.Occupancy())
	}
	p.CompletePending()
	if p.Pending() != 0 {
		t.Fatal("pending must drop to 0")
	}
}

func TestPCBFullAndRoomMaking(t *testing.T) {
	p := NewPCB(2, 1) // 2 slots, 1 entry per block
	p.Append(Entry{BlockIndex: 1})
	p.Append(Entry{BlockIndex: 2})
	if !p.Full() {
		t.Fatal("2 full blocks in 2 slots must be Full")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append on full PCB must panic")
			}
		}()
		p.Append(Entry{BlockIndex: 3})
	}()
	// Pop one for posting: a slot frees immediately for a new block.
	if p.PopPostable() == nil {
		t.Fatal("a full block must be postable")
	}
	p.AddPending()
	if !p.Full() {
		t.Fatal("1 unposted + 1 pending in 2 slots is still Full")
	}
	p.CompletePending()
	if p.Full() {
		t.Fatal("retire must make room")
	}
	p.Append(Entry{BlockIndex: 3})
}

func TestPCBDrainAllReturnsEverything(t *testing.T) {
	p := NewPCB(8, 3)
	for i := uint32(0); i < 5; i++ {
		p.Append(Entry{BlockIndex: i})
	}
	got := p.DrainAll()
	if len(got) != 5 {
		t.Fatalf("DrainAll = %d entries, want 5", len(got))
	}
	if p.Len() != 0 {
		t.Fatal("PCB must be empty after drain")
	}
	for _, f := range []func(){
		func() { p.CompletePending() },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Error("expected panic from slot misuse")
		}()
	}
}

func TestPCBConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPCB(1, 9) },
		func() { NewPCB(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: pack/unpack round-trips arbitrary entries for both paper
// block sizes.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed uint64, big bool) bool {
		bs := 128
		if big {
			bs = 256
		}
		n := EntriesPerBlock(bs)
		in := make([]Entry, n)
		x := seed
		next := func() uint64 { x = x*6364136223846793005 + 1442695040888963407; return x }
		for i := range in {
			in[i] = Entry{
				BlockIndex: uint32(next()),
				MAC2:       next(),
				Minor:      uint8(next() % 128),
				Status:     uint8(next() % 4),
			}
		}
		out := UnpackBlock(bs, PackBlock(bs, in))
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ring push/pop behaves as a FIFO queue against a model, under
// any interleaving that respects capacity.
func TestRingModelProperty(t *testing.T) {
	f := func(ops []bool) bool {
		cfg := config.Default()
		cfg.MemBytes = 1 << 30
		cfg.PUBBytes = 4 * 128
		cfg.PCBEntries = 2
		lay, err := layout.New(cfg)
		if err != nil {
			return false
		}
		r := NewRing(lay, nvm.New(lay.Total, cfg.BlockSize))
		var model [][]byte
		tag := byte(0)
		for _, push := range ops {
			if push {
				if r.Full() {
					continue
				}
				tag++
				b := make([]byte, 128)
				b[0] = tag
				r.Push(b)
				model = append(model, b)
			} else {
				if r.Empty() {
					continue
				}
				got, _ := r.Pop()
				want := model[0]
				model = model[1:]
				if got[0] != want[0] {
					return false
				}
			}
		}
		return int64(len(model)) == r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

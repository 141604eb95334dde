package nvm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func newDev() *Device { return New(1<<20, 64) }

func TestReadUnwrittenIsZero(t *testing.T) {
	d := newDev()
	got := d.ReadBlock(128)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

// TestViewUnwrittenConcurrent pins View's zero-block fallback as safe
// across independent devices in parallel (the race lane gives this
// teeth): the backing zero buffer is per-device state allocated at
// construction, not a lazily initialized global.
func TestViewUnwrittenConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := newDev()
			for i := int64(0); i < 64; i++ {
				v := d.View(i * 64)
				if len(v) != 64 || v[0] != 0 {
					t.Errorf("unwritten view wrong: len=%d v[0]=%d", len(v), v[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWriteThenRead(t *testing.T) {
	d := newDev()
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i)
	}
	d.WriteBlock(4096, in)
	if got := d.ReadBlock(4096); !bytes.Equal(got, in) {
		t.Fatal("read-after-write mismatch")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := newDev()
	in := make([]byte, 64)
	in[0] = 7
	d.WriteBlock(0, in)
	got := d.ReadBlock(0)
	got[0] = 99
	if d.ReadBlock(0)[0] != 7 {
		t.Fatal("mutating a returned block must not affect the device")
	}
}

func TestWriteCopiesInput(t *testing.T) {
	d := newDev()
	in := make([]byte, 64)
	in[0] = 7
	d.WriteBlock(0, in)
	in[0] = 99
	if d.ReadBlock(0)[0] != 7 {
		t.Fatal("mutating the input after WriteBlock must not affect the device")
	}
}

func TestCountersAndReset(t *testing.T) {
	d := newDev()
	b := make([]byte, 64)
	d.WriteBlock(0, b)
	d.WriteBlock(0, b)
	d.WriteBlock(64, b)
	d.ReadBlock(0)
	if d.TotalWrites() != 3 || d.TotalReads() != 1 {
		t.Fatalf("TotalWrites, TotalReads = %d, %d, want 3, 1", d.TotalWrites(), d.TotalReads())
	}
	d.ResetCounters()
	if d.TotalWrites() != 0 || d.TotalReads() != 0 {
		t.Fatal("ResetCounters must clear both counters")
	}
	if !d.Written(0) || !d.Written(64) {
		t.Fatal("ResetCounters must keep the contents")
	}
}

func TestReadCounting(t *testing.T) {
	d := newDev()
	d.ReadBlock(0)
	d.Peek(0)
	if d.TotalReads() != 1 {
		t.Fatalf("TotalReads = %d, want 1 (Peek must not count)", d.TotalReads())
	}
}

func TestReadRangeCrossesBlocks(t *testing.T) {
	d := newDev()
	b0 := make([]byte, 64)
	b1 := make([]byte, 64)
	for i := range b0 {
		b0[i] = 0xAA
		b1[i] = 0xBB
	}
	d.WriteBlock(0, b0)
	d.WriteBlock(64, b1)
	got := d.ReadRange(60, 8)
	want := []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xBB, 0xBB, 0xBB, 0xBB}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadRange = %x, want %x", got, want)
	}
}

func TestPanicsOnBadAccess(t *testing.T) {
	d := newDev()
	cases := []func(){
		func() { d.ReadBlock(1) },                    // unaligned
		func() { d.ReadBlock(-64) },                  // negative
		func() { d.ReadBlock(1 << 20) },              // out of range
		func() { d.WriteBlock(0, make([]byte, 63)) }, // short write
		func() { d.ReadRange(1<<20-4, 8) },           // range overflow
		func() { New(100, 64) },                      // capacity not multiple
		func() { New(0, 64) },                        // zero capacity
		func() { New(1<<20, 0) },                     // zero block
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCloneAndEqual(t *testing.T) {
	d := newDev()
	b := make([]byte, 64)
	b[5] = 42
	d.WriteBlock(192, b)
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone must equal original")
	}
	// Mutating the clone must not affect the original.
	b[5] = 43
	c.WriteBlock(192, b)
	if d.Equal(c) {
		t.Fatal("devices with different contents must not be equal")
	}
	if d.ReadBlock(192)[5] != 42 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestEqualTreatsZeroAsAbsent(t *testing.T) {
	a := newDev()
	b := newDev()
	a.WriteBlock(0, make([]byte, 64)) // explicit zeros
	if !a.Equal(b) {
		t.Fatal("explicit zero block must equal absent block")
	}
}

// Property: a sequence of writes followed by reads behaves like a map —
// the device returns the last value written to each block.
func TestDeviceIsLastWriterWins(t *testing.T) {
	f := func(ops []struct {
		Slot uint8
		Val  uint8
	}) bool {
		d := New(64*256, 64)
		model := map[int64]byte{}
		for _, op := range ops {
			addr := int64(op.Slot) * 64
			blk := make([]byte, 64)
			blk[0] = op.Val
			d.WriteBlock(addr, blk)
			model[addr] = op.Val
		}
		for addr, want := range model {
			if d.ReadBlock(addr)[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ReadRange agrees with assembling whole-block Peeks.
func TestReadRangeMatchesPeeks(t *testing.T) {
	f := func(seed uint8, off uint8, n uint8) bool {
		d := New(64*16, 64)
		for i := int64(0); i < 16; i++ {
			blk := make([]byte, 64)
			for j := range blk {
				blk[j] = byte(int(seed) + int(i)*64 + j)
			}
			d.WriteBlock(i*64, blk)
		}
		start := int64(off) % (64 * 8)
		length := int(n) % 200
		got := d.ReadRange(start, length)
		for i := 0; i < length; i++ {
			a := start + int64(i)
			blk := d.Peek(a / 64 * 64)
			if got[i] != blk[a%64] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

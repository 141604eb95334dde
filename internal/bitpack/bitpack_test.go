package bitpack

import (
	"testing"
	"testing/quick"
)

func TestRoundTripSimple(t *testing.T) {
	b := make([]byte, 16)
	Set(b, 0, 7, 0x55)
	if got := Get(b, 0, 7); got != 0x55 {
		t.Fatalf("Get = %#x, want 0x55", got)
	}
}

func TestUnalignedFields(t *testing.T) {
	b := make([]byte, 16)
	Set(b, 3, 13, 0x1ABC)
	Set(b, 16, 7, 0x7F)
	Set(b, 23, 64, 0xDEADBEEFCAFEF00D)
	if got := Get(b, 3, 13); got != 0x1ABC {
		t.Errorf("field1 = %#x", got)
	}
	if got := Get(b, 16, 7); got != 0x7F {
		t.Errorf("field2 = %#x", got)
	}
	if got := Get(b, 23, 64); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("field3 = %#x", got)
	}
}

func TestSetClearsOldBits(t *testing.T) {
	b := make([]byte, 4)
	Set(b, 5, 9, 0x1FF)
	Set(b, 5, 9, 0)
	if got := Get(b, 5, 9); got != 0 {
		t.Fatalf("field = %#x after clearing, want 0", got)
	}
}

func TestAdjacentFieldsDoNotInterfere(t *testing.T) {
	b := make([]byte, 32)
	// Pack three adjacent 105-bit entries (the PUB entry width).
	for i := 0; i < 2; i++ {
		Set(b, i*105, 64, uint64(i)+0x1111111111111111)
		Set(b, i*105+64, 32, uint64(i)+7)
		Set(b, i*105+96, 7, uint64(i)+1)
		Set(b, i*105+103, 2, uint64(i)%4)
	}
	for i := 0; i < 2; i++ {
		if Get(b, i*105, 64) != uint64(i)+0x1111111111111111 ||
			Get(b, i*105+64, 32) != uint64(i)+7 ||
			Get(b, i*105+96, 7) != uint64(i)+1 ||
			Get(b, i*105+103, 2) != uint64(i)%4 {
			t.Fatalf("entry %d corrupted by neighbour", i)
		}
	}
}

func TestPanics(t *testing.T) {
	b := make([]byte, 2)
	cases := []func(){
		func() { Get(b, 0, 0) },       // zero width
		func() { Get(b, 0, 65) },      // too wide
		func() { Get(b, 10, 7) },      // out of bounds
		func() { Get(b, -1, 4) },      // negative offset
		func() { Set(b, 0, 4, 0x10) }, // value exceeds width
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

// Property: Set then Get round-trips any value that fits the width, at
// any offset, without disturbing a sentinel field placed after it.
func TestRoundTripProperty(t *testing.T) {
	f := func(off uint8, width uint8, val uint64) bool {
		w := int(width)%64 + 1
		o := int(off) % 64
		b := make([]byte, 24)
		v := val
		if w < 64 {
			v &= 1<<w - 1
		}
		sentinelOff := o + w
		Set(b, sentinelOff, 11, 0x5AB)
		Set(b, o, w, v)
		return Get(b, o, w) == v && Get(b, sentinelOff, 11) == 0x5AB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

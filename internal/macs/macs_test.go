package macs

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSlots(t *testing.T) {
	if got := Slots(128, 16); got != 8 {
		t.Errorf("Slots(128,16) = %d, want 8", got)
	}
	if got := Slots(256, 32); got != 8 {
		t.Errorf("Slots(256,32) = %d, want 8", got)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	block := make([]byte, 128)
	mac := bytes.Repeat([]byte{0xAB}, 16)
	Set(block, 3, 16, mac)
	if got := Get(block, 3, 16); !bytes.Equal(got, mac) {
		t.Fatalf("Get = %x", got)
	}
	// Neighbours untouched.
	if !bytes.Equal(Get(block, 2, 16), make([]byte, 16)) ||
		!bytes.Equal(Get(block, 4, 16), make([]byte, 16)) {
		t.Fatal("Set leaked into neighbouring slots")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	block := make([]byte, 128)
	got := Get(block, 0, 16)
	got[0] = 0xFF
	if block[0] != 0 {
		t.Fatal("mutating Get result must not affect the block")
	}
}

func TestEqual(t *testing.T) {
	block := make([]byte, 128)
	mac := bytes.Repeat([]byte{7}, 16)
	Set(block, 1, 16, mac)
	if !Equal(block, 1, 16, mac) {
		t.Fatal("Equal must match stored MAC")
	}
	other := bytes.Repeat([]byte{8}, 16)
	if Equal(block, 1, 16, other) {
		t.Fatal("Equal must reject a different MAC")
	}
	if Equal(block, 1, 16, mac[:8]) {
		t.Fatal("Equal must reject a short MAC")
	}
}

func TestPanics(t *testing.T) {
	block := make([]byte, 128)
	cases := []func(){
		func() { Get(block, 8, 16) },                  // slot past end
		func() { Get(block, -1, 16) },                 // negative slot
		func() { Get(block, 0, 0) },                   // zero size
		func() { Set(block, 0, 16, make([]byte, 8)) }, // short mac
		func() { Slots(128, 0) },                      // zero size
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

// Property: writing all slots then reading them back recovers every MAC,
// for both block geometries used in the paper.
func TestAllSlotsRoundTripProperty(t *testing.T) {
	f := func(seed uint8, big bool) bool {
		blockSize, macSize := 128, 16
		if big {
			blockSize, macSize = 256, 32
		}
		block := make([]byte, blockSize)
		want := make([][]byte, 8)
		for s := 0; s < 8; s++ {
			m := make([]byte, macSize)
			for i := range m {
				m[i] = byte(int(seed) + s*31 + i)
			}
			want[s] = m
			Set(block, s, macSize, m)
		}
		for s := 0; s < 8; s++ {
			if !bytes.Equal(Get(block, s, macSize), want[s]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

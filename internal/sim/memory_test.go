package sim

import (
	"testing"
	"testing/quick"
)

func TestBankRouting(t *testing.T) {
	m := NewMemory(4, 64)
	// Blocks 0..3 map to distinct banks: four simultaneous reads all
	// complete at the same time.
	var dones []int64
	for i := int64(0); i < 4; i++ {
		dones = append(dones, m.Read(0, i*64, 600))
	}
	for _, d := range dones {
		if d != 600 {
			t.Fatalf("dones = %v, want all 600 (parallel banks)", dones)
		}
	}
	// Block 4 shares bank 0 with block 0: serialized.
	if d := m.Read(0, 4*64, 600); d != 1200 {
		t.Fatalf("same-bank read done = %d, want 1200", d)
	}
}

func TestSingleBankSerializes(t *testing.T) {
	m := NewMemory(1, 64)
	m.Read(0, 0, 600)
	if d := m.Read(0, 64, 600); d != 1200 {
		t.Fatalf("done = %d, want 1200", d)
	}
}

func TestForceAnyPicksMostUrgent(t *testing.T) {
	m := NewMemory(2, 64)
	// Bank 0 busy until 5000; bank 1 idle.
	m.Read(0, 0, 5000)
	m.Post(0, Item{Ready: 0, Dur: 100})  // bank 0: would start at 5000
	m.Post(64, Item{Ready: 0, Dur: 100}) // bank 1: can start at 0
	if done := m.ForceAny(); done != 100 {
		t.Fatalf("ForceAny = %d, want 100 (bank 1 is more urgent)", done)
	}
}

func TestForceAnyPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMemory(2, 64).ForceAny()
}

func TestDrainAllReturnsLastIdle(t *testing.T) {
	m := NewMemory(2, 64)
	m.Post(0, Item{Ready: 0, Dur: 100})
	m.Post(64, Item{Ready: 0, Dur: 300})
	if done := m.DrainAll(); done != 300 {
		t.Fatalf("DrainAll = %d, want 300", done)
	}
	if m.Pending() != 0 {
		t.Fatal("DrainAll must empty every bank")
	}
}

func TestBusyCyclesAcrossBanks(t *testing.T) {
	m := NewMemory(4, 64)
	m.Read(0, 0, 600)
	m.Post(64, Item{Ready: 0, Dur: 2000})
	m.DrainAll()
	if m.BusyCycles() != 2600 {
		t.Fatalf("BusyCycles = %d, want 2600", m.BusyCycles())
	}
}

func TestNewMemoryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMemory(0, 64) },
		func() { NewMemory(4, 0) },
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

// Property: more banks never slow anything down — total busy time is
// conserved, and DrainAll's idle point is non-increasing in bank count.
func TestMoreBanksNeverSlowerProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		run := func(banks int) (int64, int64) {
			m := NewMemory(banks, 64)
			var now int64
			for _, op := range ops {
				addr := int64(op%64) * 64
				if op%3 == 0 {
					now = m.Read(now, addr, 600)
				} else {
					m.Post(addr, Item{Ready: now, Dur: 2000})
				}
			}
			return m.DrainAll(), m.BusyCycles()
		}
		idle1, busy1 := run(1)
		idle4, busy4 := run(4)
		return busy1 == busy4 && idle4 <= idle1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

package crypt

import (
	"fmt"
	"testing"
)

// padChunk returns the 16-byte pad for one chunk of a block, the unit
// whose uniqueness the IV construction must guarantee.
func padChunk(e *Engine, addr int64, ctr Counter, chunk int) [16]byte {
	pad := e.Pad(addr, ctr, (chunk+1)*16)
	var out [16]byte
	copy(out[:], pad[chunk*16:])
	return out
}

// TestIVUniquenessAcrossCounterBoundaries asserts that distinct
// (major, minor, chunk) tuples never produce the same one-time pad.
//
// This is a regression test for the original IV layout, which packed
// major<<8|minor into v[8:16] (silently dropping the top 8 bits of the
// major) and XORed the chunk index into v[15] — a byte already occupied
// by major bits 48..55. Under that layout, (major=M, chunk=0) and
// (major=M^(c<<48), chunk=c) collided, reusing the pad.
func TestIVUniquenessAcrossCounterBoundaries(t *testing.T) {
	e := NewEngine(1)
	const addr = 0x1000

	majors := []uint64{
		0, 1, 0xFF, 0x100,
		1 << 47, 1 << 48, 1 << 55, 1 << 56, // boundary of the bits the old layout dropped
		0xFFFF_FFFF_FFFF_FFFF,
	}
	minors := []uint8{0, 1, MinorMax}
	chunks := []int{0, 1, 3, 7}

	type key struct {
		major uint64
		minor uint8
		chunk int
	}
	seen := make(map[[16]byte]key)
	for _, M := range majors {
		for _, m := range minors {
			for _, c := range chunks {
				p := padChunk(e, addr, Counter{Major: M, Minor: m}, c)
				if prev, dup := seen[p]; dup {
					t.Fatalf("pad reuse: (major=%#x minor=%d chunk=%d) and (major=%#x minor=%d chunk=%d) share a one-time pad",
						prev.major, prev.minor, prev.chunk, M, m, c)
				}
				seen[p] = key{M, m, c}
			}
		}
	}
}

// TestIVChunkVsMajorCollision pins the exact collision the original
// layout exhibited: XORing the chunk index into the byte holding major
// counter bits 48..55 made (major=M, chunk=0) collide with
// (major=M|c<<48, chunk=c). The fixed layout gives the chunk a dedicated
// byte, so these pads must differ.
func TestIVChunkVsMajorCollision(t *testing.T) {
	e := NewEngine(1)
	const addr = 0x2000
	const M = uint64(7)
	for _, c := range []int{1, 2, 5, 15} {
		a := padChunk(e, addr, Counter{Major: M, Minor: 3}, 0)
		b := padChunk(e, addr, Counter{Major: M | uint64(c)<<48, Minor: 3}, c)
		if a == b {
			t.Fatalf("chunk %d: pad collides with major counter bits (old-layout bug)", c)
		}
	}
}

// TestIVMajorHighBitsPreserved asserts that majors differing only in
// their top 8 bits — which the original layout shifted out entirely —
// produce different pads.
func TestIVMajorHighBitsPreserved(t *testing.T) {
	e := NewEngine(1)
	const addr = 0x3000
	base := Counter{Major: 0x1234, Minor: 5}
	for shift := 56; shift < 64; shift++ {
		hi := Counter{Major: base.Major | 1<<uint(shift), Minor: 5}
		a := padChunk(e, addr, base, 0)
		b := padChunk(e, addr, hi, 0)
		if a == b {
			t.Fatalf("major bit %d dropped from the IV: pad reused", shift)
		}
	}
}

// TestIVRejectsOutOfRangeInputs asserts the explicit range checks: the
// 16-byte IV cannot represent unaligned or >2^52 addresses, nor chunk
// indexes past one byte, so those inputs must panic rather than alias.
func TestIVRejectsOutOfRangeInputs(t *testing.T) {
	e := NewEngine(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"unaligned address", func() { e.Pad(8, Counter{}, 16) }},
		{"address beyond 2^52", func() { e.Pad(1<<52, Counter{}, 16) }},
		{"negative address", func() { e.Pad(-16, Counter{}, 16) }},
		{"chunk index beyond 255", func() { e.Pad(0, Counter{}, 257*16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// TestPadIntoMatchesPad pins the Into/alloc API pair together.
func TestPadIntoMatchesPad(t *testing.T) {
	e := NewEngine(3)
	ctr := Counter{Major: 9, Minor: 4}
	want := e.Pad(0x4000, ctr, 128)
	got := make([]byte, 128)
	e.PadInto(got, 0x4000, ctr)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("PadInto disagrees with Pad")
	}
}

// TestXorPadRoundTrip pins the in-place XOR path against Encrypt/Decrypt.
func TestXorPadRoundTrip(t *testing.T) {
	e := NewEngine(3)
	ctr := Counter{Major: 2, Minor: 1}
	plain := make([]byte, 128)
	for i := range plain {
		plain[i] = byte(i)
	}
	buf := append([]byte(nil), plain...)
	e.XorPad(buf, 0x5000, ctr)
	want := e.Encrypt(plain, 0x5000, ctr)
	if fmt.Sprint(buf) != fmt.Sprint(want) {
		t.Fatal("XorPad disagrees with Encrypt")
	}
	e.XorPad(buf, 0x5000, ctr)
	if fmt.Sprint(buf) != fmt.Sprint(plain) {
		t.Fatal("XorPad does not invert itself")
	}
}

// TestMACIntoMatchesMAC pins the Into/alloc MAC pair together.
func TestMACIntoMatchesMAC(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, 128)
	ct[9] = 0xAB
	ctr := Counter{Major: 1 << 60, Minor: 77}
	want := e.MAC(ct, 0x6000, ctr, 16)
	got := make([]byte, 16)
	e.MACInto(got, ct, 0x6000, ctr)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("MACInto disagrees with MAC")
	}
}

// TestMACBindsFullMajor asserts the MAC header carries the full major
// counter (the original packing dropped the top 8 bits there too).
func TestMACBindsFullMajor(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, 128)
	a := e.MAC(ct, 0, Counter{Major: 1, Minor: 0}, 16)
	b := e.MAC(ct, 0, Counter{Major: 1 | 1<<56, Minor: 0}, 16)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("MAC ignores the top bits of the major counter")
	}
}

// TestEngineOpsAllocFree asserts the steady-state crypto primitives do
// not allocate once the engine is constructed. The pads, MACs and tree
// hashes run at every block size the configurations use (MACs at their
// 8-to-1 width), and tree nodes at every word count, through every pad
// and keyed-hash path this CPU runs.
func TestEngineOpsAllocFree(t *testing.T) {
	e := NewEngine(5)
	ctr := Counter{Major: 11, Minor: 3}
	words := make([]uint64, TreeNodeWords)
	for _, kernel := range padPaths() {
		withKernel(kernel, func() {
			for _, bs := range []int{64, 128, 256} {
				blk := make([]byte, bs)
				if n := testing.AllocsPerRun(200, func() {
					e.XorPad(blk, 0x7000, ctr)
				}); n != 0 {
					t.Errorf("kernel=%v XorPad(%d B) allocates %.1f times per op", kernel, bs, n)
				}
				if n := testing.AllocsPerRun(200, func() {
					e.PadInto(blk, 0x7000, ctr)
				}); n != 0 {
					t.Errorf("kernel=%v PadInto(%d B) allocates %.1f times per op", kernel, bs, n)
				}
			}
		})
	}
	for _, kernel := range shaPaths() {
		withSHAKernel(kernel, func() {
			for _, bs := range []int{64, 128, 256} {
				blk := make([]byte, bs)
				mac := make([]byte, bs/8)
				if n := testing.AllocsPerRun(200, func() {
					e.MACInto(mac, blk, 0x7000, ctr)
				}); n != 0 {
					t.Errorf("SHA kernel=%v MACInto(%d B) allocates %.1f times per op", kernel, bs, n)
				}
				if n := testing.AllocsPerRun(200, func() {
					_ = e.MAC2(mac)
				}); n != 0 {
					t.Errorf("SHA kernel=%v MAC2(%d B) allocates %.1f times per op", kernel, len(mac), n)
				}
				if n := testing.AllocsPerRun(200, func() {
					_ = e.TreeHash(64, blk)
				}); n != 0 {
					t.Errorf("SHA kernel=%v TreeHash(%d B) allocates %.1f times per op", kernel, bs, n)
				}
			}
			for k := 0; k <= TreeNodeWords; k++ {
				if n := testing.AllocsPerRun(200, func() {
					_ = e.TreeHashWords(64, words[:k])
				}); n != 0 {
					t.Errorf("SHA kernel=%v TreeHashWords(%d words) allocates %.1f times per op", kernel, k, n)
				}
			}
		})
	}
}

package crypt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refPad is the per-chunk reference pad: one crypto/aes Encrypt of each
// chunk's IV, assembled here from the layout in the package comment.
func refPad(e *Engine, addr int64, ctr Counter, n int) []byte {
	out := make([]byte, n)
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[0:8], ctr.Major)
	a := uint64(addr) >> 4
	for i := 0; i < 6; i++ {
		iv[8+i] = byte(a >> (8 * i))
	}
	iv[14] = ctr.Minor
	for c := 0; c < n/16; c++ {
		iv[15] = byte(c)
		e.aes.Encrypt(out[c*16:], iv[:])
	}
	return out
}

// padPaths returns the pad paths this CPU can run: the 8-block kernel
// (when available) and the per-chunk crypto/aes loop.
func padPaths() []bool {
	if useKernel {
		return []bool{true, false}
	}
	return []bool{false}
}

// withKernel runs fn with the kernel switch set to on, restoring it
// afterwards.
func withKernel(on bool, fn func()) {
	old := useKernel
	useKernel = on
	defer func() { useKernel = old }()
	fn()
}

// checkPad compares Pad, PadInto and XorPad for one request with the
// reference, and checks that PadInto and XorPad write no byte past the
// request.
func checkPad(t *testing.T, e *Engine, addr int64, ctr Counter, n int) {
	t.Helper()
	want := refPad(e, addr, ctr, n)
	if got := e.Pad(addr, ctr, n); !bytes.Equal(got, want) {
		t.Fatalf("Pad(%#x, %+v, %d) differs from the per-chunk reference", addr, ctr, n)
	}
	const guard = 48
	buf := bytes.Repeat([]byte{0xEE}, n+guard)
	e.PadInto(buf[:n], addr, ctr)
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("PadInto(%#x, %+v, %d) differs from the per-chunk reference", addr, ctr, n)
	}
	if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xEE}, guard)) {
		t.Fatalf("PadInto(%d bytes) wrote past its slice", n)
	}
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	plain := append([]byte(nil), buf...)
	e.XorPad(buf[:n], addr, ctr)
	for i := 0; i < n; i++ {
		if buf[i] != plain[i]^want[i] {
			t.Fatalf("XorPad(%#x, %+v, %d) differs from the per-chunk reference at byte %d", addr, ctr, n, i)
		}
	}
	if !bytes.Equal(buf[n:], plain[n:]) {
		t.Fatalf("XorPad(%d bytes) wrote past its slice", n)
	}
}

// TestPadMatchesBlockCipher pins every pad length from one chunk to 256
// against the per-chunk crypto/aes reference, at the address-space
// edges and at counters with the major's high bits and both minor
// extremes set — once through the 8-block kernel (where the CPU has
// one) and once through the crypto/aes loop.
func TestPadMatchesBlockCipher(t *testing.T) {
	if !useKernel {
		t.Log("no AES-NI pad kernel on this CPU: checking the crypto/aes path only")
	}
	addrs := []int64{0, 0x1000, 0xABCD_EF10, maxIVAddr - 16}
	ctrs := []Counter{
		{Major: 0, Minor: 0},
		{Major: 1, Minor: MinorMax},
		{Major: 0xFF00_0000_0000_0001, Minor: 0},
		{Major: 1<<63 | 0x5A5A, Minor: MinorMax},
	}
	for _, kernel := range padPaths() {
		withKernel(kernel, func() {
			for _, seed := range []int64{1, 7, 42} {
				e := NewEngine(seed)
				for _, addr := range addrs {
					for _, ctr := range ctrs {
						for n := 16; n <= 4096; n += 16 {
							checkPad(t, e, addr, ctr, n)
						}
					}
				}
			}
		})
	}
}

// TestExpandKeyMatchesCipher checks the key schedule the kernel loads
// against FIPS-197's published vector, then runs NewEngine's
// kernel-versus-crypto/aes self-check for many keys.
func TestExpandKeyMatchesCipher(t *testing.T) {
	var key [16]byte
	var xk [roundKeyBytes]byte
	for i := range key {
		key[i] = byte(i)
	}
	expandKey128(&xk, &key)
	// FIPS-197 Appendix C.1: round[10].k_sch for key 000102...0f.
	want := []byte{0x13, 0x11, 0x1d, 0x7f, 0xe3, 0x94, 0x4a, 0x17,
		0xf3, 0x07, 0xa7, 0x8b, 0x4d, 0x2b, 0x30, 0xc5}
	if !bytes.Equal(xk[160:], want) {
		t.Fatalf("round key 10 = %x, want %x", xk[160:], want)
	}
	if useKernel {
		for seed := int64(0); seed < 64; seed++ {
			NewEngine(seed) // panics if the kernel disagrees with crypto/aes
		}
	}
}

// FuzzPad drives the pad paths with arbitrary engines, addresses,
// counters and lengths, comparing each with the per-chunk reference.
func FuzzPad(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(int64(2), uint64(maxIVAddr-16), uint64(1<<63|7), uint8(MinorMax), uint8(255))
	f.Add(int64(3), uint64(0x1230), uint64(5), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, addr, major uint64, minor, chunks uint8) {
		e := NewEngine(seed)
		a := int64(addr%maxIVAddr) &^ 15
		ctr := Counter{Major: major, Minor: minor}
		n := (int(chunks) + 1) * 16
		for _, kernel := range padPaths() {
			withKernel(kernel, func() { checkPad(t, e, a, ctr, n) })
		}
	})
}

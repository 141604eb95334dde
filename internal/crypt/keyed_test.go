package crypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// shaPaths returns the keyed-hash paths this CPU can run: the SHA-NI
// kernel (when available) and crypto/sha256.
func shaPaths() []bool {
	if useSHAKernel {
		return []bool{true, false}
	}
	return []bool{false}
}

// withSHAKernel runs fn with the SHA kernel switch set to on, restoring
// it afterwards.
func withSHAKernel(on bool, fn func()) {
	old := useSHAKernel
	useSHAKernel = on
	defer func() { useSHAKernel = old }()
	fn()
}

// vecInput returns n deterministic input bytes for the keyed-hash tests.
func vecInput(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*29) ^ salt
	}
	return b
}

// TestKeyedHashVectors pins known-answer bytes of every keyed hash on
// one engine: the MACs of 64, 128 and 256 B blocks at 8, 16 and 32
// bytes (MAC and MACInto), MAC2 over 8, 16 and 32 B, TreeHash over 64,
// 128 and 256 B nodes and TreeHashWords over 1 to 8 words. The values
// were recorded from the digest-restore implementation that preceded
// the one-pass kernel, so both paths must reproduce them.
func TestKeyedHashVectors(t *testing.T) {
	macs := []struct {
		block int
		hex   string
	}{
		{64, "d8d7128efc1c04c2c87f64bf66bacdb3629fbec31d53cbfe01429385c1753b86"},
		{128, "8b8b38727dae85ba293a48ee7fd703761cb4bb23104c6a6c9472a0f974c4a156"},
		{256, "78c58372de55f8684b90871f18fa2a717f1a15561ac224cc0fe3bdb8b16b7c25"},
	}
	mac2s := []struct {
		n    int
		want uint64
	}{{8, 0xeb463117cb7d7008}, {16, 0xf375aac344d50bc0}, {32, 0xc384d60eac4ded56}}
	trees := []struct {
		n    int
		want uint64
	}{{64, 0xb3f199a31ef715b2}, {128, 0xe1f88523f242a773}, {256, 0xcb220e75439b62ae}}
	words := []uint64{
		0x1e5d1d4ad882a2fb, 0x2369f6da5a6426f2, 0xdce0b76f287780f5, 0xf1e1166bc99865bd,
		0x338a98175926610b, 0xbbf4fe59ed839006, 0xa9d37616cff132b2, 0x5e845d840c845157,
	}
	for _, kernel := range shaPaths() {
		withSHAKernel(kernel, func() {
			e := NewEngine(42)
			ctr := Counter{Major: 0x0123_4567_89AB_CDEF, Minor: 0x55}
			for _, v := range macs {
				want, _ := hex.DecodeString(v.hex)
				blk := vecInput(v.block, 1)
				for _, size := range []int{8, 16, 32} {
					if got := e.MAC(blk, 0x12340, ctr, size); !bytes.Equal(got, want[:size]) {
						t.Errorf("kernel=%v MAC(%d B block, size %d) = %x, want %x", kernel, v.block, size, got, want[:size])
					}
					dst := make([]byte, size)
					e.MACInto(dst, blk, 0x12340, ctr)
					if !bytes.Equal(dst, want[:size]) {
						t.Errorf("kernel=%v MACInto(%d B block, size %d) = %x, want %x", kernel, v.block, size, dst, want[:size])
					}
				}
			}
			for _, v := range mac2s {
				if got := e.MAC2(vecInput(v.n, 2)); got != v.want {
					t.Errorf("kernel=%v MAC2(%d B) = %#016x, want %#016x", kernel, v.n, got, v.want)
				}
			}
			for _, v := range trees {
				if got := e.TreeHash(0x4000, vecInput(v.n, 3)); got != v.want {
					t.Errorf("kernel=%v TreeHash(%d B) = %#016x, want %#016x", kernel, v.n, got, v.want)
				}
			}
			var w [TreeNodeWords]uint64
			for i := range w {
				w[i] = 0x9E37_79B9_7F4A_7C15 * uint64(i+1)
			}
			for k := 1; k <= TreeNodeWords; k++ {
				if got := e.TreeHashWords(0x8000, w[:k]); got != words[k-1] {
					t.Errorf("kernel=%v TreeHashWords(%d words) = %#016x, want %#016x", kernel, k, got, words[k-1])
				}
			}
		})
	}
}

// refKeyed is the keyed hash computed with crypto/sha256 from the
// construction alone: SHA-256 over the MAC key, the domain tag and the
// input, truncated to n bytes.
func refKeyed(e *Engine, domain byte, input []byte, n int) []byte {
	msg := append(append(append([]byte(nil), e.macKey[:]...), domain), input...)
	sum := sha256.Sum256(msg)
	return sum[:n]
}

// TestKeyedHashMatchesSHA256 compares MAC2, TreeHash and MAC with
// crypto/sha256 over every staged message length from the bare key and
// domain up to past the staging buffer, through the SHA-NI kernel
// (where the CPU has one) and through the crypto/sha256 path. The
// lengths cross every SHA-256 padding boundary: a message whose length
// byte and 0x80 marker spill into an extra block, and one that fills a
// block exactly.
func TestKeyedHashMatchesSHA256(t *testing.T) {
	if !useSHAKernel {
		t.Log("no SHA-NI kernel on this CPU: checking the crypto/sha256 path only")
	}
	for _, kernel := range shaPaths() {
		withSHAKernel(kernel, func() {
			for _, seed := range []int64{1, 9} {
				e := NewEngine(seed)
				for n := 0; msgKey+n <= msgBytes+2*sha256.BlockSize; n++ {
					in := vecInput(n, byte(seed))
					if got, want := e.MAC2(in), binary.LittleEndian.Uint64(refKeyed(e, domMAC2, in, 8)); got != want {
						t.Fatalf("kernel=%v seed=%d MAC2(%d B) = %#016x, want %#016x", kernel, seed, n, got, want)
					}
					hdr := binary.LittleEndian.AppendUint64(nil, 0x40c0)
					if got, want := e.TreeHash(0x40c0, in), binary.LittleEndian.Uint64(refKeyed(e, domTree, append(hdr, in...), 8)); got != want {
						t.Fatalf("kernel=%v seed=%d TreeHash(%d B) = %#016x, want %#016x", kernel, seed, n, got, want)
					}
					ctr := Counter{Major: 1<<63 | uint64(n), Minor: MinorMax}
					hdr = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x7700), ctr.Major)
					hdr = append(hdr, ctr.Minor)
					if got, want := e.MAC(in, 0x7700, ctr, 32), refKeyed(e, domMAC1, append(hdr, in...), 32); !bytes.Equal(got, want) {
						t.Fatalf("kernel=%v seed=%d MAC(%d B) = %x, want %x", kernel, seed, n, got, want)
					}
				}
			}
		})
	}
}

// FuzzKeyedHash checks MAC, MAC2 and TreeHash on arbitrary engines
// and inputs against crypto/sha256 over the same bytes, on every path
// this CPU runs.
func FuzzKeyedHash(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0), uint8(0), []byte{})
	f.Add(int64(2), uint64(0x1000), uint64(1<<63|7), uint8(MinorMax), vecInput(128, 5))
	f.Add(int64(3), uint64(0xfff0), uint64(5), uint8(3), vecInput(msgBytes, 7))
	f.Fuzz(func(t *testing.T, seed int64, addr, major uint64, minor uint8, in []byte) {
		e := NewEngine(seed)
		ctr := Counter{Major: major, Minor: minor}
		hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, addr), major)
		hdr = append(hdr, minor)
		wantMAC := refKeyed(e, domMAC1, append(hdr, in...), 32)
		wantMAC2 := binary.LittleEndian.Uint64(refKeyed(e, domMAC2, in, 8))
		wantTree := binary.LittleEndian.Uint64(refKeyed(e, domTree, append(binary.LittleEndian.AppendUint64(nil, addr), in...), 8))
		for _, kernel := range shaPaths() {
			withSHAKernel(kernel, func() {
				if got := e.MAC(in, int64(addr), ctr, 32); !bytes.Equal(got, wantMAC) {
					t.Fatalf("kernel=%v MAC(%d B) = %x, want %x", kernel, len(in), got, wantMAC)
				}
				if got := e.MAC2(in); got != wantMAC2 {
					t.Fatalf("kernel=%v MAC2(%d B) = %#016x, want %#016x", kernel, len(in), got, wantMAC2)
				}
				if got := e.TreeHash(int64(addr), in); got != wantTree {
					t.Fatalf("kernel=%v TreeHash(%d B) = %#016x, want %#016x", kernel, len(in), got, wantTree)
				}
			})
		}
	})
}

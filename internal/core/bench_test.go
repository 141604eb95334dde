package core

import (
	"testing"

	"repro/internal/config"
)

// benchController builds a Thoth controller with one data block persisted
// and its metadata warm, so subsequent reads of addr are steady-state
// cache hits.
func benchController(tb testing.TB) (*Controller, int64, int64) {
	tb.Helper()
	c, err := New(testConfig(config.ThothWTSC))
	if err != nil {
		tb.Fatal(err)
	}
	addr := c.Layout().DataBase
	blk := make([]byte, c.cfg.BlockSize)
	for i := range blk {
		blk[i] = byte(i) ^ 0x42
	}
	now := c.PersistBlock(0, addr, blk)
	now, _ = c.ReadBlock(now, addr)
	return c, addr, now
}

// TestReadHitZeroAlloc pins the tentpole guarantee: a steady-state read
// whose counter and MAC blocks are cache-resident performs no heap
// allocation — the ciphertext is borrowed from the device, the MAC is
// recomputed into controller scratch, and the plaintext is decrypted
// in place in the controller's read buffer. `make test` runs it; any
// allocation sneaking back into the path fails the build.
func TestReadHitZeroAlloc(t *testing.T) {
	c, addr, now := benchController(t)
	allocs := testing.AllocsPerRun(500, func() {
		now, _ = c.ReadBlock(now, addr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state read hit allocates %v/op, want 0", allocs)
	}
}

// BenchmarkReadHit measures the steady-state secure read: metadata
// caches hot, MAC verification and CTR decryption on every op.
func BenchmarkReadHit(b *testing.B) {
	c, addr, now := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ = c.ReadBlock(now, addr)
	}
}

// BenchmarkPersistSteady measures the secure persist path in steady
// state: a small working set of pages cycling through counter bumps,
// re-encryption, MAC updates, and Thoth's PCB/PUB machinery (including
// ring evictions once the PUB fills).
func BenchmarkPersistSteady(b *testing.B) {
	c, err := New(testConfig(config.ThothWTSC))
	if err != nil {
		b.Fatal(err)
	}
	blk := make([]byte, c.cfg.BlockSize)
	bs := int64(c.cfg.BlockSize)
	base := c.Layout().DataBase
	var now int64
	for i := int64(0); i < 256; i++ {
		now = c.PersistBlock(now, base+i%256*bs, blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.PersistBlock(now, base+int64(i)%256*bs, blk)
	}
}

package nvm

import (
	"bytes"
	"sync"
	"testing"
)

// TestShardConcurrentSamePage drives many goroutines at disjoint blocks
// of the same storage pages; under -race this pins the striped locking
// (page allocation, written bitmap) and afterwards the contents
// must equal a serially written twin.
func TestShardConcurrentSamePage(t *testing.T) {
	const bs = 128
	const workers = 8
	const blocks = PageBlocks * 4 // four pages, each shared by all workers

	dev := New(int64(blocks*bs), bs)
	want := New(int64(blocks*bs), bs)

	payload := func(i int) []byte {
		b := make([]byte, bs)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	for i := 0; i < blocks; i++ {
		want.WriteBlock(int64(i*bs), payload(i))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := dev.Shard()
			scratch := make([]byte, bs)
			for i := w; i < blocks; i += workers {
				// Peek an unrelated block of the same page mid-write
				// traffic, then write our own.
				sh.PeekInto(scratch, int64((i^1)%blocks*bs))
				sh.WriteBlock(int64(i*bs), payload(i))
			}
		}(w)
	}
	wg.Wait()

	if !dev.Equal(want) {
		t.Fatal("concurrent shard writes diverge from serial writes")
	}
	if dev.TotalWrites() != want.TotalWrites() {
		t.Fatalf("TotalWrites = %d, want %d", dev.TotalWrites(), want.TotalWrites())
	}
	for i := 0; i < blocks; i++ {
		addr := int64(i * bs)
		if !dev.Written(addr) {
			t.Fatalf("block %d not marked written", i)
		}
		if got := dev.Peek(addr); !bytes.Equal(got, payload(i)) {
			t.Fatalf("block %d contents diverge", i)
		}
	}
}

// TestShardPeekMatchesPeek checks the shard view reads exactly what the
// plain device API reads, including never-written zeros over a dirty
// destination, without counting a read.
func TestShardPeekMatchesPeek(t *testing.T) {
	dev := New(1<<16, 64)
	blk := make([]byte, 64)
	for i := range blk {
		blk[i] = byte(i + 1)
	}
	dev.WriteBlock(128, blk)
	sh := dev.Shard()
	got := make([]byte, 64)
	sh.PeekInto(got, 128)
	if !bytes.Equal(got, dev.Peek(128)) {
		t.Fatal("shard PeekInto diverges from device Peek on a written block")
	}
	sh.PeekInto(got, 0)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("shard PeekInto of a never-written block is not zero")
	}
	if dev.TotalReads() != 0 {
		t.Fatalf("shard PeekInto counted %d device reads, want 0", dev.TotalReads())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shard PeekInto into a short buffer must panic")
		}
	}()
	sh.PeekInto(got[:8], 0)
}

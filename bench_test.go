package thoth

// Benchmarks: the whole evaluation at smoke scale (cmd/experiments
// regenerates every figure and table; the harness golden pins their
// cells) and component micro-benchmarks of the controller's hot paths.

import (
	"io"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/pub"
	"repro/internal/workload"
)

// BenchmarkExperimentSuiteQuick times the whole evaluation at smoke
// scale (what `cmd/experiments -quick -exp all` runs).
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("full suite")
	}
	for i := 0; i < b.N; i++ {
		e := harness.NewExperiments(harness.QuickScale(), io.Discard)
		if err := e.All(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks ---

// BenchmarkPersistBlock measures the secure persistent write path
// (counter bump, AES-CTR, two-level MAC, tree update, PCB insert).
func BenchmarkPersistBlock(b *testing.B) {
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := config.Default().WithScheme(s)
			cfg.MemBytes = 256 << 20
			cfg.PUBBytes = 1 << 20
			sys, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, cfg.BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				if err := sys.Write(int64(i%1024)*int64(cfg.BlockSize), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadBlock measures the verified read path (counter fetch,
// OTP, decrypt, MAC check).
func BenchmarkReadBlock(b *testing.B) {
	cfg := config.Default()
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = 1 << 20
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, cfg.BlockSize)
	for i := 0; i < 1024; i++ {
		sys.Write(int64(i)*int64(cfg.BlockSize), data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Read(int64(i%1024)*int64(cfg.BlockSize), cfg.BlockSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPUBPack measures partial-update bit-packing (9 entries per
// 128B block).
func BenchmarkPUBPack(b *testing.B) {
	n := pub.EntriesPerBlock(128)
	entries := make([]pub.Entry, n)
	for i := range entries {
		entries[i] = pub.Entry{BlockIndex: uint32(i), MAC2: uint64(i) * 77, Minor: uint8(i % 128)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := pub.PackBlock(128, entries)
		if got := pub.UnpackBlock(128, blk); len(got) != n {
			b.Fatal("bad unpack")
		}
	}
}

// BenchmarkWorkloadTx measures raw trace generation (no simulation).
func BenchmarkWorkloadTx(b *testing.B) {
	for _, name := range WorkloadNames() {
		b.Run(name, func(b *testing.B) {
			w, err := workload.New(name, workload.Params{
				HeapSize:  512 << 20,
				TxSize:    128,
				Seed:      1,
				SetupKeys: 2048,
			})
			if err != nil {
				b.Fatal(err)
			}
			sink := nullSink{}
			w.Setup(sink)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Tx(sink)
			}
		})
	}
}

type nullSink struct{}

func (nullSink) Load(addr, size int64)    {}
func (nullSink) Store(addr, size int64)   {}
func (nullSink) Persist(addr, size int64) {}
func (nullSink) Fence()                   {}

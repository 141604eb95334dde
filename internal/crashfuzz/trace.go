package crashfuzz

import (
	"repro/internal/config"
)

// OpKind distinguishes trace operations.
type OpKind uint8

const (
	// OpWrite persists Len bytes at Addr (a data-region offset). Full
	// blocks, unaligned partial blocks (read-modify-write) and multi-block
	// spans are all legal; multi-block spans model torn transactions,
	// since the crash point can fall between the constituent block
	// persists of a larger logical update.
	OpWrite OpKind = iota
	// OpRead reads Len bytes at Addr. Reads perturb metadata-cache and
	// WPQ state without changing the golden model.
	OpRead
	// OpCorrupt flips one bit in the counter region of shard 0's raw
	// device (offset Addr into the region), modeling an attacker or media
	// fault. The generator never emits it; tests use it to construct
	// cases that must fail, exercising the reporting and minimization
	// machinery. A flip on a shard that shuts down cleanly is overwritten
	// by the shutdown's metadata write-back, so such cases crash shard 0.
	OpCorrupt
)

// String names the kind for reports.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpCorrupt:
		return "corrupt"
	default:
		return "op?"
	}
}

// Op is one trace operation.
type Op struct {
	Kind OpKind
	Addr int64 // data-region offset (region offset for OpCorrupt)
	Len  int   // bytes accessed
	Fill byte  // payload generator for writes
}

// payload derives the written bytes for an OpWrite. It depends only on
// the op itself so replays and golden-model application agree exactly.
func (o Op) payload() []byte {
	b := make([]byte, o.Len)
	for i := range b {
		b[i] = o.Fill ^ byte(i*7) ^ byte(o.Addr>>7)
	}
	return b
}

// CrashMode selects how the crash point was chosen.
type CrashMode uint8

const (
	// Uniform samples the crash index uniformly over [0, len(Trace)].
	Uniform CrashMode = iota
	// Adversarial profiles the trace once without crashing and samples
	// the crash index from the operation boundaries where ADR-domain
	// pressure events fired: PCB flushes into the PUB, PUB evictions,
	// counter overflows, and forced WPQ drains.
	Adversarial
)

// String names the mode for reports.
func (m CrashMode) String() string {
	if m == Adversarial {
		return "adversarial"
	}
	return "uniform"
}

// Case is one fully concrete crash-injection scenario. All fields derive
// deterministically from Seed (DeriveCase); a Case can also be built by
// hand or by the minimizer.
type Case struct {
	Seed      int64
	Mode      CrashMode
	BlockSize int // 128 or 256
	PUBBlocks int // PUB capacity in blocks (small, to force evictions)
	PCBSlots  int // PCB entries reserved out of the WPQ

	// Variants are the executions of the identical trace. Each faces the
	// golden check on its own, and every variant's recovered plaintext is
	// cross-compared with the first's. The first variant's scheme is the
	// one the adversarial crash profile runs.
	Variants []Variant

	// Trace is the generated workload. Ops at index >= CrashIdx never
	// execute; the crash fires after op CrashIdx-1 completes.
	Trace    []Op
	CrashIdx int
}

// ConfigFor builds the machine configuration for one scheme of the case:
// the paper's Table I machine scaled down so short traces still churn
// the metadata caches, drain the WPQ and evict from the PUB. A pool
// variant divides it between its shards (engine.ShardConfig).
func (c Case) ConfigFor(s config.Scheme) config.Config {
	cfg := config.Default().WithScheme(s).WithBlockSize(c.BlockSize)
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = int64(c.PUBBlocks) * int64(c.BlockSize)
	cfg.CtrCacheBytes = 4 << 10
	cfg.MACCacheBytes = 8 << 10
	cfg.MTCacheBytes = 16 << 10
	cfg.WPQEntries = 16
	cfg.PCBEntries = c.PCBSlots
	cfg.Seed = c.Seed
	return cfg
}

// goldenAfter replays the executed prefix of the trace through a shadow
// model: a map from block-aligned data offset to the plaintext the
// system acknowledged before the crash. Writes are applied with
// read-modify-write semantics over an initially zeroed store, exactly
// mirroring System.Write's split into block persists.
func goldenAfter(c Case) map[int64][]byte {
	bs := int64(c.BlockSize)
	golden := make(map[int64][]byte)
	for _, op := range c.Trace[:c.CrashIdx] {
		if op.Kind != OpWrite {
			continue
		}
		data := op.payload()
		for off := int64(0); off < int64(len(data)); {
			blk := (op.Addr + off) / bs * bs
			lo := (op.Addr + off) - blk
			n := bs - lo
			if rem := int64(len(data)) - off; n > rem {
				n = rem
			}
			cur, ok := golden[blk]
			if !ok {
				cur = make([]byte, bs)
				golden[blk] = cur
			}
			copy(cur[lo:lo+n], data[off:off+n])
			off += n
		}
	}
	return golden
}

// DeriveCase expands a seed into a concrete case. The derivation is
// pure: the same seed always yields the same case, including the
// adversarial crash point (the profiling run it samples from is itself
// deterministic).
func DeriveCase(seed int64) Case {
	r := newRNG(seed)
	c := Case{Seed: seed}

	if r.Pct(50) {
		c.BlockSize = 128
	} else {
		c.BlockSize = 256
	}
	c.PUBBlocks = []int{16, 24, 32, 64}[r.Intn(4)]
	c.PCBSlots = []int{2, 4, 8}[r.Intn(3)]

	derived := config.ThothWTSC
	if r.Pct(45) {
		derived = []config.Scheme{config.ThothWTSC, config.ThothWTBC, config.BaselineStrict}[r.Intn(3)]
	} else {
		// Unused, but dropping the draw would shift every later one and
		// change each seed's trace and crash index.
		r.Pct(64)
	}
	c.Variants = variantsFor(seed, derived)

	c.Trace = deriveTrace(r, c.BlockSize)

	if r.Pct(30) {
		c.Mode = Adversarial
		c.CrashIdx = adversarialCrashIdx(r, c)
	} else {
		c.Mode = Uniform
		c.CrashIdx = r.Intn(len(c.Trace) + 1)
	}
	return c
}

// deriveTrace generates a workload: mostly full-block writes over a hot
// working set (so counter and MAC blocks are shared and the PCB gets to
// merge), salted with unaligned partial writes, multi-block spans, cold
// far-away pages, and reads.
func deriveTrace(r *rng, blockSize int) []Op {
	bs := int64(blockSize)
	nOps := 20 + r.Intn(160)
	hotBlocks := 3 + r.Intn(30)
	trace := make([]Op, 0, nOps)
	for len(trace) < nOps {
		var blk int64
		if r.Pct(70) {
			blk = int64(r.Intn(hotBlocks)) // hot: shares pages/counter blocks
		} else {
			blk = int64(r.Intn(4096)) // cold: spreads across pages
		}
		addr := blk * bs
		switch {
		case r.Pct(20): // read
			trace = append(trace, Op{Kind: OpRead, Addr: addr, Len: blockSize})
		case r.Pct(19): // unaligned partial write (read-modify-write)
			off := int64(r.Intn(blockSize - 1))
			n := 1 + r.Intn(blockSize-int(off))
			trace = append(trace, Op{Kind: OpWrite, Addr: addr + off, Len: n, Fill: r.Byte()})
		case r.Pct(12): // multi-block span: a torn logical transaction
			n := (2 + r.Intn(2)) * blockSize
			trace = append(trace, Op{Kind: OpWrite, Addr: addr, Len: n, Fill: r.Byte()})
		default: // full single-block write
			trace = append(trace, Op{Kind: OpWrite, Addr: addr, Len: blockSize, Fill: r.Byte()})
		}
	}
	return trace
}

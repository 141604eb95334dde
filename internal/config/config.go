// Package config defines the simulation configuration for the Thoth secure
// NVM model. All parameters from Table I of the paper (HPCA 2023) are
// represented here, along with the knobs the evaluation section sweeps:
// cache-block size, transaction size, metadata cache sizes, WPQ size, and
// the persistence scheme under test.
package config

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Kind identifies a persistence-scheme family. Schemes with no tunables
// are fully identified by their Kind; parameterized schemes (Triad)
// carry their tunable inside the Scheme value.
type Kind uint8

const (
	// KindBaselineStrict is the paper's baseline: Anubis adapted to
	// future memory interfaces. Every persistent data write also strictly
	// persists the full counter block and the full MAC block through the
	// WPQ (which coalesces writes to the same block address).
	KindBaselineStrict Kind = iota
	// KindThothWTSC is Thoth with the Write-back Through Status Checks
	// eviction policy (the scheme adopted by the paper).
	KindThothWTSC
	// KindThothWTBC is Thoth with the Write-back Through Bitmask Checks
	// eviction policy (precise, but needs fine-grained dirty tracking).
	KindThothWTBC
	// KindAnubisECC models the hypothetical comparator of Section V-F:
	// Anubis on an interface where ECC bits co-locate the counter with
	// data and the MAC is written on a parallel chip, so no separate
	// metadata writes are required for crash consistency.
	KindAnubisECC
	// KindTriadRelaxed is a Triad-NVM-style relaxed scheme (Awad et al.):
	// counters and MACs persist strictly like the baseline, but
	// Merkle-tree nodes are only checkpointed every N persisted blocks
	// instead of on every cache eviction — trading recovery work (a full
	// tree rebuild from persisted counters) for tree-write amplification.
	KindTriadRelaxed
)

// Scheme selects the persistence engine used by the secure memory
// controller. It is a small comparable value: schemes work as map keys
// and in == comparisons and switch cases. The zero value is
// BaselineStrict. Construct parameterized schemes with TriadRelaxed.
type Scheme struct {
	kind Kind
	// epoch is the tree-checkpoint interval for KindTriadRelaxed
	// (persisted blocks between checkpoints); unused otherwise.
	epoch int
}

// The fixed (tunable-free) schemes. These are variables only because a
// struct cannot be a Go constant; treat them as constants.
var (
	BaselineStrict = Scheme{kind: KindBaselineStrict}
	ThothWTSC      = Scheme{kind: KindThothWTSC}
	ThothWTBC      = Scheme{kind: KindThothWTBC}
	AnubisECC      = Scheme{kind: KindAnubisECC}
)

// TriadRelaxed returns the relaxed-persistence scheme that checkpoints
// dirty Merkle-tree nodes every epoch persisted blocks. Validate rejects
// epoch < 1.
func TriadRelaxed(epoch int) Scheme {
	return Scheme{kind: KindTriadRelaxed, epoch: epoch}
}

// Kind returns the scheme family.
func (s Scheme) Kind() Kind { return s.kind }

// TriadEpoch returns the tree-checkpoint interval of a TriadRelaxed
// scheme, and 0 for every other kind.
func (s Scheme) TriadEpoch() int {
	if s.kind != KindTriadRelaxed {
		return 0
	}
	return s.epoch
}

// String returns the scheme name used in reports, experiment tables and
// trace schemeTag fields. ParseScheme is its exact inverse.
func (s Scheme) String() string {
	switch s.kind {
	case KindBaselineStrict:
		return "baseline-strict"
	case KindThothWTSC:
		return "thoth-wtsc"
	case KindThothWTBC:
		return "thoth-wtbc"
	case KindAnubisECC:
		return "anubis-ecc"
	case KindTriadRelaxed:
		return fmt.Sprintf("triad-relaxed-%d", s.epoch)
	default:
		return fmt.Sprintf("scheme(%d)", int(s.kind))
	}
}

// ParseScheme decodes a Scheme.String() value back into the Scheme —
// the strict inverse used by trace/JSONL schemeTag consumers. It accepts
// exactly the canonical names ("baseline-strict", "thoth-wtsc",
// "thoth-wtbc", "anubis-ecc", "triad-relaxed-<epoch>"); user-facing
// aliases live in scheme.Parse.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "baseline-strict":
		return BaselineStrict, nil
	case "thoth-wtsc":
		return ThothWTSC, nil
	case "thoth-wtbc":
		return ThothWTBC, nil
	case "anubis-ecc":
		return AnubisECC, nil
	}
	if rest, ok := strings.CutPrefix(name, "triad-relaxed-"); ok {
		epoch, err := strconv.Atoi(rest)
		if err != nil || epoch < 1 || strconv.Itoa(epoch) != rest {
			return Scheme{}, fmt.Errorf("config: bad triad epoch in scheme name %q", name)
		}
		return TriadRelaxed(epoch), nil
	}
	return Scheme{}, fmt.Errorf("config: unknown scheme name %q", name)
}

// MarshalText encodes the scheme as its canonical name, so JSON and
// text encodings of configs and results round-trip through ParseScheme.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a canonical scheme name.
func (s *Scheme) UnmarshalText(b []byte) error {
	dec, err := ParseScheme(string(b))
	if err != nil {
		return err
	}
	*s = dec
	return nil
}

// IsThoth reports whether the scheme uses the PCB/PUB machinery.
func (s Scheme) IsThoth() bool {
	return s.kind == KindThothWTSC || s.kind == KindThothWTBC
}

// Config carries every parameter of a simulation run. The zero value is
// not usable; start from Default and override.
type Config struct {
	// Scheme selects the persistence engine.
	Scheme Scheme

	// CPUFreqGHz is the core clock used to convert nanoseconds to
	// cycles. Table I: 4 GHz.
	CPUFreqGHz float64

	// Cores is the number of logical issue streams interleaved by the
	// front-end. Table I: 4.
	Cores int

	// BlockSize is the memory access granularity in bytes (the cache
	// block written to NVM). The paper evaluates 128 and 256.
	BlockSize int

	// TxSize is the persistent transaction size in bytes written per
	// workload transaction. The paper sweeps 128, 512, 1024, 2048.
	TxSize int

	// MemBytes is the capacity of the NVM module. Table I: 32 GB. The
	// backing store is sparse, so large values cost nothing.
	MemBytes int64

	// ReadLatencyNS and WriteLatencyNS are the NVM access latencies.
	// Table I: 150 ns and 500 ns.
	ReadLatencyNS  int
	WriteLatencyNS int

	// NVMBanks is the number of independently timed banks the module
	// exposes; consecutive blocks interleave across banks (hashed, as
	// real controllers do). Bank-level parallelism is what lets a module
	// sustain more than one block write per WriteLatencyNS.
	NVMBanks int

	// ReadBehindWrites is how many already-queued writes a demand read
	// must wait behind at its bank. NVM characterization work (e.g.
	// Wang et al., MICRO'20, cited by the paper) shows write bursts
	// significantly inflating read latency; 0 models ideal read
	// priority.
	ReadBehindWrites int

	// AESLatencyCycles and HashLatencyCycles are the crypto-unit
	// latencies. Table I: 40 cycles each.
	AESLatencyCycles  int
	HashLatencyCycles int

	// WPQEntries is the total number of ADR-backed write-pending-queue
	// entries. Table I: 64 in the baseline. Under Thoth, PCBEntries of
	// them are reserved for the persistent combining buffer.
	WPQEntries int

	// PCBEntries is the number of WPQ entries reserved as the PCB under
	// Thoth. Table I: 8 (i.e. 56 remain as ordinary WPQ entries).
	PCBEntries int

	// WPQDrainFraction is the occupancy at which the WPQ begins
	// draining to NVM. Section V-A: 0.5 in the baseline so that
	// metadata writes arriving close in time can coalesce.
	WPQDrainFraction float64

	// PUBBytes is the capacity of the off-chip partial updates buffer.
	// Table I: 64 MB.
	PUBBytes int64

	// PUBEvictFraction is the occupancy at which PUB eviction starts.
	// Section V-A: 0.8.
	PUBEvictFraction float64

	// CtrCacheBytes/CtrCacheWays configure the counter cache
	// (Table I: 64 kB, 4-way).
	CtrCacheBytes int
	CtrCacheWays  int

	// MACCacheBytes/MACCacheWays configure the MAC cache
	// (Table I: 128 kB, 8-way).
	MACCacheBytes int
	MACCacheWays  int

	// MTCacheBytes/MTCacheWays configure the Merkle-tree cache
	// (Table I: 256 kB, 8-way).
	MTCacheBytes int
	MTCacheWays  int

	// LLCBytes/LLCWays/LLCLatencyCycles configure the shared LLC model.
	// Table I: 16 MB, 16-way, 32 cycles.
	LLCBytes         int
	LLCWays          int
	LLCLatencyCycles int

	// NVMTreeLevels is the arity-8 Merkle tree depth over NVM
	// (Table I: 10, lazy update). CacheTreeLevels is the eager tree
	// over the secure metadata cache (Table I: 4).
	NVMTreeLevels   int
	CacheTreeLevels int

	// PageBytes is the split-counter page: one counter block covers
	// this many bytes of data (64-bit major shared across the page,
	// 7-bit minor per block). Canonical split-counter uses 4 KB.
	PageBytes int

	// PCBAfterWPQ selects the alternative PCB arrangement of Section
	// IV-C: metadata-block writes enter the WPQ like the baseline's, but
	// when a lightly-updated block reaches the head of the queue its
	// partial updates are diverted into the PCB instead of writing the
	// full block. The paper found the augmented PCB-before-WPQ (the
	// default, false) performs similarly; this flag exists for the
	// ablation.
	PCBAfterWPQ bool

	// EADR enables enhanced ADR (Section II-B): the entire cache
	// hierarchy joins the persistence domain, so stores are durable in
	// cache, clwb/sfence leave the critical path, and a crash flushes
	// everything — equivalent to a clean shutdown. The paper assumes
	// plain ADR and leaves eADR to future work; this flag implements
	// that extension for the ablation experiment.
	EADR bool

	// Seed drives all pseudo-random choices (workload keys, crash
	// points) so every run is reproducible.
	Seed int64

	// Tracer, when non-nil, receives every controller event (PCB
	// flushes, PUB evictions, counter overflows, WPQ drains, metadata
	// cache evictions, tree write-backs, recovery merges). nil disables
	// tracing at zero cost: emit sites check the field before even
	// constructing an event. Tracer is a runtime hook, not machine
	// geometry — Validate ignores it and experiment memo keys exclude
	// it.
	Tracer obs.Tracer
}

// Default returns the Table I configuration with the 128B cache block and
// 128B transactions, using the ThothWTSC scheme.
func Default() Config {
	return Config{
		Scheme:            ThothWTSC,
		CPUFreqGHz:        4.0,
		Cores:             4,
		BlockSize:         128,
		TxSize:            128,
		MemBytes:          32 << 30,
		ReadLatencyNS:     150,
		WriteLatencyNS:    500,
		NVMBanks:          2,
		ReadBehindWrites:  3,
		AESLatencyCycles:  40,
		HashLatencyCycles: 40,
		WPQEntries:        64,
		PCBEntries:        8,
		WPQDrainFraction:  0.5,
		PUBBytes:          64 << 20,
		PUBEvictFraction:  0.8,
		CtrCacheBytes:     64 << 10,
		CtrCacheWays:      4,
		MACCacheBytes:     128 << 10,
		MACCacheWays:      8,
		MTCacheBytes:      256 << 10,
		MTCacheWays:       8,
		LLCBytes:          16 << 20,
		LLCWays:           16,
		LLCLatencyCycles:  32,
		NVMTreeLevels:     10,
		CacheTreeLevels:   4,
		PageBytes:         4096,
		Seed:              1,
	}
}

// ReadLatencyCycles converts the NVM read latency to core cycles.
func (c Config) ReadLatencyCycles() int64 {
	return int64(float64(c.ReadLatencyNS) * c.CPUFreqGHz)
}

// WriteLatencyCycles converts the NVM write latency to core cycles.
func (c Config) WriteLatencyCycles() int64 {
	return int64(float64(c.WriteLatencyNS) * c.CPUFreqGHz)
}

// PartialEntryBits is the size of one packed PUB entry: 32b address +
// 64b second-level MAC + 7b minor counter + 2b status (Section IV-A).
const PartialEntryBits = 32 + 64 + 7 + 2

// PartialsPerBlock returns how many packed partial-update entries fit in
// one cache block: 9 for 128B blocks and 19 for 256B blocks, matching
// Table I.
func (c Config) PartialsPerBlock() int {
	return c.BlockSize * 8 / PartialEntryBits
}

// PUBBlocks returns the PUB capacity in cache blocks.
func (c Config) PUBBlocks() int64 { return c.PUBBytes / int64(c.BlockSize) }

// PUBEntries returns the PUB capacity in packed partial-update entries.
func (c Config) PUBEntries() int64 {
	return c.PUBBlocks() * int64(c.PartialsPerBlock())
}

// BlocksPerPage returns how many data blocks share one split-counter
// major (one counter block covers one page).
func (c Config) BlocksPerPage() int { return c.PageBytes / c.BlockSize }

// MACSize returns the first-level MAC size for a data block: an 8-to-1
// MAC, i.e. blockSize/8 bytes (16B for 128B blocks, 32B for 256B).
func (c Config) MACSize() int { return c.BlockSize / 8 }

// MACsPerBlock returns how many first-level MACs fit in one MAC block.
// With an 8-to-1 MAC this is always 8.
func (c Config) MACsPerBlock() int { return c.BlockSize / c.MACSize() }

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (c Config) Validate() error {
	switch {
	case c.Scheme.kind > KindTriadRelaxed:
		return fmt.Errorf("config: unknown scheme kind %d", c.Scheme.kind)
	case c.Scheme.kind == KindTriadRelaxed && c.Scheme.epoch < 1:
		return fmt.Errorf("config: triad-relaxed checkpoint epoch %d must be >= 1", c.Scheme.epoch)
	case c.Scheme.kind != KindTriadRelaxed && c.Scheme.epoch != 0:
		return fmt.Errorf("config: scheme %v carries a stray epoch %d", c.Scheme, c.Scheme.epoch)
	case c.PCBAfterWPQ && !c.Scheme.IsThoth():
		return fmt.Errorf("config: PCBAfterWPQ requires a Thoth scheme (got %v); the %v persist path has no PCB", c.Scheme, c.Scheme)
	case c.BlockSize != 64 && c.BlockSize != 128 && c.BlockSize != 256:
		return fmt.Errorf("config: block size %d not in {64,128,256}", c.BlockSize)
	case c.TxSize <= 0:
		return fmt.Errorf("config: transaction size %d must be positive", c.TxSize)
	case c.CPUFreqGHz <= 0:
		return errors.New("config: CPU frequency must be positive")
	case c.Cores <= 0:
		return errors.New("config: core count must be positive")
	case c.MemBytes <= 0:
		return errors.New("config: memory size must be positive")
	case c.ReadLatencyNS <= 0 || c.WriteLatencyNS <= 0:
		return errors.New("config: NVM latencies must be positive")
	case c.NVMBanks <= 0:
		return errors.New("config: NVM bank count must be positive")
	case c.ReadBehindWrites < 0:
		return errors.New("config: read-behind-writes must be non-negative")
	case c.WPQEntries <= 0:
		return errors.New("config: WPQ must have at least one entry")
	case c.Scheme.IsThoth() && (c.PCBEntries <= 0 || c.PCBEntries >= c.WPQEntries):
		return fmt.Errorf("config: PCB entries %d must be in (0,%d)", c.PCBEntries, c.WPQEntries)
	case c.WPQDrainFraction <= 0 || c.WPQDrainFraction > 1:
		return fmt.Errorf("config: WPQ drain fraction %g not in (0,1]", c.WPQDrainFraction)
	case c.PUBEvictFraction <= 0 || c.PUBEvictFraction > 1:
		return fmt.Errorf("config: PUB evict fraction %g not in (0,1]", c.PUBEvictFraction)
	case c.Scheme.IsThoth() && c.PUBBlocks() <= int64(c.PCBEntries)+1:
		return fmt.Errorf("config: PUB of %d blocks cannot absorb a crash-time flush of %d PCB slots", c.PUBBlocks(), c.PCBEntries)
	case c.PageBytes%c.BlockSize != 0:
		return fmt.Errorf("config: page size %d not a multiple of block size %d", c.PageBytes, c.BlockSize)
	case c.CtrCacheBytes < c.BlockSize || c.MACCacheBytes < c.BlockSize || c.MTCacheBytes < c.BlockSize:
		return errors.New("config: metadata caches must hold at least one block")
	case c.CtrCacheWays <= 0 || c.MACCacheWays <= 0 || c.MTCacheWays <= 0:
		return errors.New("config: metadata cache ways must be positive")
	case c.LLCBytes < c.BlockSize || c.LLCWays <= 0:
		return errors.New("config: LLC must hold at least one block")
	case c.NVMTreeLevels <= 0 || c.CacheTreeLevels <= 0:
		return errors.New("config: tree levels must be positive")
	}
	if c.PartialsPerBlock() < 1 {
		return fmt.Errorf("config: block size %d cannot pack a %d-bit partial entry", c.BlockSize, PartialEntryBits)
	}
	return nil
}

// WithBlockSize returns a copy with the cache-block size replaced.
func (c Config) WithBlockSize(n int) Config { c.BlockSize = n; return c }

// WithTxSize returns a copy with the transaction size replaced.
func (c Config) WithTxSize(n int) Config { c.TxSize = n; return c }

// WithScheme returns a copy with the persistence scheme replaced.
func (c Config) WithScheme(s Scheme) Config { c.Scheme = s; return c }

// WithWPQ returns a copy with WPQEntries set to n and PCBEntries set to
// n/8, matching Section V-E ("we reserve 1/8 of WPQ entries for PCB").
func (c Config) WithWPQ(n int) Config {
	c.WPQEntries = n
	c.PCBEntries = n / 8
	return c
}

// WithMetadataCaches returns a copy with the counter and MAC cache sizes
// replaced (Figure 11 sweeps 64k/128k, 512k/1M, 1M/2M).
func (c Config) WithMetadataCaches(ctrBytes, macBytes int) Config {
	c.CtrCacheBytes = ctrBytes
	c.MACCacheBytes = macBytes
	return c
}

// Package engine implements the sharded multi-controller front-end: one
// logical protected data pool address-partitioned across N independent
// controller shards, each with its own WPQ, PCB, PUB, integrity tree and
// crypto engine over its slice of the pool.
//
// Partitioning is by metadata *group* — lcm(BlocksPerPage, MACsPerBlock)
// consecutive data blocks, the unit proven safe to shard by the parallel
// recovery engine (see internal/recovery/parallel.go): all counter- and
// MAC-block sharing is confined to one group, so routing whole groups
// keeps every read-modify-write of shared metadata inside a single
// controller. Groups stripe round-robin across shards (group g lives on
// shard g mod N), which makes the one-shard pool's address map the
// identity — a one-shard Pool is byte-identical to a bare controller
// driven through core's WriteRange, ReadRange and PersistBatch, the
// property the differential tests pin. The public thoth.System is a
// one-shard Pool.
//
// Each shard is a controller and its modeled clock behind one mutex.
// Front-end calls run on the caller's goroutine: they split a request at
// group boundaries and serve the segments one by one, each under its
// shard's lock, never holding two shard locks at once. The Pool is safe
// for concurrent use by multiple goroutines: the lock serializes each
// shard's stream while callers on distinct shards proceed in parallel. The shards' modeled concurrency lives in
// their independent cycle clocks, not in host threads; only PersistBatch
// fans out, one goroutine per busy shard.
package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/stats"
)

// Sentinel errors, shared with the public thoth package (which aliases
// them so errors.Is works uniformly across System and Pool).
var (
	// ErrCrashed reports an operation on a pool that has crashed or shut
	// down.
	ErrCrashed = errors.New("thoth: system has crashed")
	// ErrOutOfRange reports an access outside the protected data region.
	ErrOutOfRange = errors.New("thoth: access outside data region")
)

// MaxShards bounds the shard count; beyond this the per-shard controller
// footprint (caches, PUB) dwarfs any modeled parallelism.
const MaxShards = 64

// WriteReq is one full-block write of a PersistBatch: a block-aligned
// offset into the protected data region and exactly BlockSize bytes of
// data. The slice is only read during the call.
type WriteReq struct {
	Addr int64
	Data []byte
}

// shard is one controller partition: mu guards ctl, the modeled clock
// now and the batch scratch, and every service runs on its caller's
// goroutine between s.mu.Lock and release.
type shard struct {
	mu  sync.Mutex
	idx int
	ctl *core.Controller
	now int64

	// batch holds the shard's translated share of a PersistBatch,
	// reused across calls so steady-state batching does not allocate.
	batch []core.WriteReq
}

// Pool is the sharded multi-controller system over one logical data
// region. Construct with New (fresh devices) or Open (existing images).
// All methods are safe for concurrent use.
type Pool struct {
	cfg        config.Config // pool-level config (full MemBytes)
	shardCfg   config.Config // per-shard config (MemBytes / n)
	n          int
	groupBytes int64 // metadata-group span in bytes
	perShard   int64 // usable data bytes per shard
	dataBase   int64 // DataBase of the (identical) per-shard layouts

	mu      sync.RWMutex // RLock: ops; Lock: crash/shutdown
	crashed bool
	shards  []*shard
}

// ShardConfig derives the per-shard configuration and the pool geometry:
// each shard models an independent controller (its own caches, WPQ, PCB
// and PUB at their configured sizes — per-instance resources, as on real
// multi-channel controllers) over MemBytes/shards of the module.
func ShardConfig(cfg config.Config, shards int) (config.Config, error) {
	if shards < 1 || shards > MaxShards {
		return config.Config{}, fmt.Errorf("engine: shard count %d not in [1,%d]", shards, MaxShards)
	}
	if err := cfg.Validate(); err != nil {
		return config.Config{}, err
	}
	if cfg.MemBytes%int64(shards) != 0 {
		return config.Config{}, fmt.Errorf("engine: MemBytes %d not divisible by %d shards", cfg.MemBytes, shards)
	}
	scfg := cfg
	scfg.MemBytes = cfg.MemBytes / int64(shards)
	if err := scfg.Validate(); err != nil {
		return config.Config{}, fmt.Errorf("engine: per-shard config: %w", err)
	}
	return scfg, nil
}

// newPool builds the pool and its shards; attach constructs each shard's
// controller (fresh for New, image-attached for Open).
func newPool(cfg config.Config, shards int, attach func(scfg config.Config, i int) (*core.Controller, error)) (*Pool, error) {
	scfg, err := ShardConfig(cfg, shards)
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		// Callers on distinct shards emit concurrently; serialize for
		// plain tracers.
		scfg.Tracer = obs.Serialized(cfg.Tracer)
	}
	lay, err := layout.New(scfg)
	if err != nil {
		return nil, err
	}
	group := recovery.GroupBlocks(scfg) * int64(scfg.BlockSize)
	// One shard routes by the identity map and keeps the whole data
	// region. Striping needs whole groups: with more shards each slice
	// drops the tail that cannot fill one (a group spans several pages
	// when the blocks per page are not a multiple of the MACs per block).
	perShard := lay.DataBytes
	if shards > 1 {
		perShard = perShard / group * group
	}
	if perShard <= 0 {
		return nil, fmt.Errorf("engine: shard data region %dB cannot hold one %dB metadata group",
			lay.DataBytes, group)
	}
	p := &Pool{
		cfg:        cfg,
		shardCfg:   scfg,
		n:          shards,
		groupBytes: group,
		perShard:   perShard,
		dataBase:   lay.DataBase,
		shards:     make([]*shard, shards),
	}
	for i := range p.shards {
		ctl, err := attach(scfg, i)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		p.shards[i] = &shard{idx: i, ctl: ctl}
	}
	return p, nil
}

// New creates a pool of shards fresh (zeroed) controllers and devices.
func New(cfg config.Config, shards int) (*Pool, error) {
	return newPool(cfg, shards, func(scfg config.Config, _ int) (*core.Controller, error) {
		return core.New(scfg)
	})
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return p.n }

// Config returns the pool-level configuration.
func (p *Pool) Config() config.Config { return p.cfg }

// BlockSize returns the access granularity in bytes.
func (p *Pool) BlockSize() int { return p.cfg.BlockSize }

// DataSize returns the usable protected data region in bytes: the sum of
// the shard slices, each floored to a whole number of metadata groups
// when there is more than one shard.
func (p *Pool) DataSize() int64 { return int64(p.n) * p.perShard }

// GroupBytes returns the metadata-group span in bytes — the routing
// granularity: offsets within one group always land on one shard.
func (p *Pool) GroupBytes() int64 { return p.groupBytes }

// locate maps a pool data offset to (shard, local shard data offset).
// Whole groups stripe round-robin: group g lives on shard g mod n at
// local group slot g div n. With n == 1 this is the identity map.
func (p *Pool) locate(addr int64) (int, int64) {
	return p.shardOf(addr), p.localOf(addr)
}

// shardOf is locate's shard half.
func (p *Pool) shardOf(addr int64) int {
	return int(addr / p.groupBytes % int64(p.n))
}

// localOf is locate's offset half.
func (p *Pool) localOf(addr int64) int64 {
	g := addr / p.groupBytes
	return (g/int64(p.n))*p.groupBytes + addr%p.groupBytes
}

// checkRange validates a data-region access. Callers hold p.mu.RLock.
func (p *Pool) checkRange(addr int64, n int) error {
	if err := p.checkAlive(); err != nil {
		return err
	}
	if addr < 0 || n < 0 || addr+int64(n) > p.DataSize() {
		return fmt.Errorf("%w: range [%d,+%d) outside data region of %d bytes",
			ErrOutOfRange, addr, n, p.DataSize())
	}
	return nil
}

// checkAlive reports ErrCrashed once the pool has crashed or shut down.
// Callers hold p.mu.
func (p *Pool) checkAlive() error {
	if p.crashed {
		return fmt.Errorf("%w; recover the pool image and Open a new pool", ErrCrashed)
	}
	return nil
}

// Write persists data at the given pool offset: encrypted, MACed, bound
// into the owning shard's integrity tree, crash-consistent per the
// configured scheme. Each shard applies its segments in submission
// order. It is WriteArrive at cycle 0: a shard clock never runs behind
// cycle 0, so no segment waits for its arrival.
func (p *Pool) Write(addr int64, data []byte) error {
	_, err := p.arrive(true, 0, addr, data, nil)
	return err
}

// Read returns n bytes from the given pool offset, decrypting and
// verifying every covered block on its owning shard.
func (p *Pool) Read(addr int64, n int) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkRange(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := p.serveRange(false, 0, addr, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// PersistBatch persists a batch of full-block writes, scattering the
// requests to their owning shards (each shard persists its share in
// submission order). Busy shards persist their shares concurrently:
// the caller runs one share and one goroutine runs each other share,
// all joined before return; a batch that keeps one shard busy makes no
// allocation in steady state. The batch is validated before any
// request commits, so an invalid request leaves the pool untouched.
func (p *Pool) PersistBatch(reqs []WriteReq) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkAlive(); err != nil {
		return err
	}
	bs := int64(p.cfg.BlockSize)
	for i := range reqs {
		if err := p.checkRange(reqs[i].Addr, len(reqs[i].Data)); err != nil {
			return fmt.Errorf("batch request %d: %w", i, err)
		}
		if reqs[i].Addr%bs != 0 || int64(len(reqs[i].Data)) != bs {
			return fmt.Errorf("batch request %d: %w: [%d,+%d) is not one aligned block",
				i, ErrOutOfRange, reqs[i].Addr, len(reqs[i].Data))
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	var busy uint64 // bit i: shard i owns a request (MaxShards fits)
	for i := range reqs {
		busy |= 1 << p.shardOf(reqs[i].Addr)
	}
	first := bits.TrailingZeros64(busy)
	if busy &= busy - 1; busy == 0 {
		return p.shards[first].persistBatch(p, reqs)
	}
	errs := make([]error, p.n)
	var wg sync.WaitGroup
	for ; busy != 0; busy &= busy - 1 {
		sh := bits.TrailingZeros64(busy)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[sh] = p.shards[sh].persistBatch(p, reqs)
		}()
	}
	errs[first] = p.shards[first].persistBatch(p, reqs)
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns the pooled statistics: the counter-wise sum of every
// shard's snapshot, with Cycles replaced by the shard maximum — the
// pool's modeled makespan, since shards run concurrently. After a crash
// or shutdown it returns the final snapshot, power-down work included.
func (p *Pool) Stats() (stats.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var pooled stats.Stats
	var makespan int64
	for _, s := range p.shards {
		st, err := s.stats()
		if err != nil {
			return stats.Stats{}, err
		}
		makespan = max(makespan, st.Cycles)
		pooled = pooled.Add(st)
	}
	pooled.Cycles = makespan
	return pooled, nil
}

// ShardStats returns one shard's statistics snapshot, Cycles stamped to
// that shard's modeled clock; like Stats, it outlives a crash.
func (p *Pool) ShardStats(i int) (stats.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i < 0 || i >= p.n {
		return stats.Stats{}, fmt.Errorf("engine: shard %d not in [0,%d)", i, p.n)
	}
	return p.shards[i].stats()
}

// Elapsed returns the pool's modeled makespan in cycles: the maximum
// shard clock.
func (p *Pool) Elapsed() (int64, error) {
	st, err := p.Stats()
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// Device returns shard i's device image, i in [0, Shards()): live
// while the pool runs (tampering with it models an attacker), the
// power-down image once it has crashed or shut down.
func (p *Pool) Device(i int) *nvm.Device { return p.shards[i].ctl.Device() }

// Root returns shard i's on-chip integrity-tree root.
func (p *Pool) Root(i int) uint64 {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Root()
}

// FlightRecord snapshots shard i's crash flight recorder: its most
// recent controller events in arrival order. Taken after a crash, its
// tail is the crash sequence itself (ADR flush, PUB seals).
func (p *Pool) FlightRecord(i int) obs.FlightRecord {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.FlightRecord()
}

// VerifyCrashConsistency checks every shard's crash-recoverability
// invariant without perturbing the pool.
func (p *Pool) VerifyCrashConsistency() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crashed {
		return ErrCrashed
	}
	var errs []error
	for _, s := range p.shards {
		if err := s.verify(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// CrashShards models a partial power failure: shards with crash[i] true
// lose their volatile state (only the ADR domain survives, as
// core.Controller.Crash), the rest power down cleanly
// (core.Controller.Shutdown, needing no recovery). The pool is dead
// afterwards; recover the returned image with RecoverPool and reopen
// with Open. The error joins per-shard ADR flush failures — the image
// is still returned for diagnosis.
func (p *Pool) CrashShards(crash []bool) (*PoolImage, error) {
	if len(crash) != p.n {
		return nil, fmt.Errorf("engine: crash mask has %d entries for %d shards", len(crash), p.n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil, ErrCrashed
	}
	p.crashed = true
	img := &PoolImage{
		Shards:  p.n,
		Crashed: append([]bool(nil), crash...),
		Devices: make([]*nvm.Device, p.n),
		Flights: make([]obs.FlightRecord, p.n),
	}
	var errs []error
	for i, s := range p.shards {
		var err error
		img.Devices[i], img.Flights[i], err = s.powerDown(crash[i])
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return img, errors.Join(errs...)
}

// Crash crashes every shard: a whole-pool power failure.
func (p *Pool) Crash() (*PoolImage, error) {
	crash := make([]bool, p.n)
	for i := range crash {
		crash[i] = true
	}
	return p.CrashShards(crash)
}

// Shutdown powers every shard down cleanly; the returned image needs no
// recovery.
func (p *Pool) Shutdown() (*PoolImage, error) {
	return p.CrashShards(make([]bool, p.n))
}

// release ends a service begun by locking s.mu; defer it right after
// the lock. It converts a panic in the service (bad geometry, a device
// range violation, a failed MAC verification) into an error, so one
// poisoned request cannot take the pool down; an error panic value is
// wrapped, so errors.Is still finds core.ErrIntegrity. It also uninstalls any request span, which a panic
// mid-service may have left on the controller, and unlocks the shard.
func (s *shard) release(err *error) {
	if v := recover(); v != nil {
		if e, ok := v.(error); ok {
			*err = fmt.Errorf("engine: shard %d: panic: %w", s.idx, e)
		} else {
			*err = fmt.Errorf("engine: shard %d: panic: %v", s.idx, v)
		}
	}
	s.ctl.SetSpan(nil)
	s.mu.Unlock()
}

// serve runs one segment (confined to a single metadata group) of an op
// arriving at the given cycle and returns the shard clock at its
// completion. An idle shard's clock advances to the arrival; a
// backlogged shard queues the segment behind the work already accepted.
// A non-nil span is charged that wait as SpanQueue and is installed on
// the controller for the service itself, so its stage cycles sum exactly
// to the completion − arrival.
func (s *shard) serve(write bool, arrival, addr int64, buf []byte, span *obs.Span) (done int64, err error) {
	s.mu.Lock()
	defer s.release(&err)
	if arrival > s.now {
		s.now = arrival
	}
	if span != nil {
		span.Add(obs.SpanQueue, s.now-arrival)
		s.ctl.SetSpan(span)
	}
	if !write {
		s.now = s.ctl.ReadRange(s.now, addr, buf)
		return s.now, nil
	}
	s.now = s.ctl.WriteRange(s.now, addr, buf)
	return s.now, nil
}

// persistBatch persists the shard's share of a PersistBatch: the
// requests it owns, in submission order, translated into its scratch
// under its lock.
func (s *shard) persistBatch(p *Pool, reqs []WriteReq) (err error) {
	s.mu.Lock()
	defer s.release(&err)
	s.batch = s.batch[:0]
	for i := range reqs {
		if p.shardOf(reqs[i].Addr) == s.idx {
			s.batch = append(s.batch, core.WriteReq{
				Addr: p.dataBase + p.localOf(reqs[i].Addr),
				Data: reqs[i].Data,
			})
		}
	}
	s.now = s.ctl.PersistBatch(s.now, s.batch)
	clear(s.batch) // drop payload references until the next batch
	return nil
}

// stats returns the shard's statistics snapshot, Cycles stamped to its
// clock.
func (s *shard) stats() (snap stats.Stats, err error) {
	s.mu.Lock()
	defer s.release(&err)
	snap = *s.ctl.Stats()
	snap.Cycles = s.now
	return snap, nil
}

// verify checks the shard's crash-recoverability invariant.
func (s *shard) verify() (err error) {
	s.mu.Lock()
	defer s.release(&err)
	return s.ctl.VerifyCrashConsistency()
}

// powerDown crashes the shard (only the ADR domain survives) or shuts it
// down cleanly, and returns its device and flight record. The snapshot
// is taken after the power-down so the black box includes the ADR flush
// events of the crash sequence itself.
func (s *shard) powerDown(crash bool) (dev *nvm.Device, flight obs.FlightRecord, err error) {
	s.mu.Lock()
	defer s.release(&err)
	if crash {
		err = s.ctl.Crash(s.now)
	} else {
		s.now, err = s.ctl.Shutdown(s.now)
	}
	return s.ctl.Device(), s.ctl.FlightRecord(), err
}

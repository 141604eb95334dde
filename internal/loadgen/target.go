package loadgen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Target is the system a Driver generates traffic against. Write and
// Read carry the op's modeled arrival cycle and return its completion
// cycle: the service starts no earlier than the arrival (an idle target
// advances its clock to it) and no earlier than the end of the work
// queued ahead of it, so completion − arrival is the open-loop latency —
// queueing delay plus service — that the driver feeds into its latency
// histograms.
type Target interface {
	BlockSize() int
	DataSize() int64
	Write(arrival, addr int64, data []byte) (int64, error)
	Read(arrival, addr int64, dst []byte) (int64, error)
}

// SpanTarget is a Target that can decompose each op's modeled latency
// into pipeline-stage cycles: the *Span variants reset span and charge
// every stage of the op's critical path so the stage cycles sum exactly
// to completion − arrival (the conservation property the attribution
// tests pin). A nil span must behave exactly like the plain call. Both
// built-in targets implement it; Options.Attribution requires it.
type SpanTarget interface {
	Target
	WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error)
	ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error)
}

// ControllerTarget adapts one bare core.Controller: it owns the modeled
// clock and serves each op with the controller's WriteRange or
// ReadRange. A one-shard PoolTarget serves the same ops identically;
// this target skips the pool's locks and routing. With every arrival at
// cycle 0 it is byte- and cycle-identical to a thoth.System, the
// property the closed-loop differential test pins. Not safe for
// concurrent use (neither is the controller).
type ControllerTarget struct {
	ctl  *core.Controller
	now  int64
	size int64
}

// NewControllerTarget wraps a controller.
func NewControllerTarget(ctl *core.Controller) *ControllerTarget {
	return &ControllerTarget{ctl: ctl, size: ctl.Layout().DataBytes}
}

// BlockSize returns the access granularity in bytes.
func (t *ControllerTarget) BlockSize() int { return t.ctl.Layout().BlockSize }

// DataSize returns the protected data region in bytes.
func (t *ControllerTarget) DataSize() int64 { return t.size }

// Now returns the modeled clock (the completion cycle of the last op).
func (t *ControllerTarget) Now() int64 { return t.now }

// Stats snapshots the controller statistics, Cycles stamped to the
// target clock (the same protocol as System.Stats).
func (t *ControllerTarget) Stats() stats.Stats {
	snap := *t.ctl.Stats()
	snap.Cycles = t.now
	return snap
}

// checkRange validates a data-region access.
func (t *ControllerTarget) checkRange(arrival, addr int64, n int) error {
	if arrival < 0 {
		return fmt.Errorf("loadgen: negative arrival cycle %d", arrival)
	}
	if addr < 0 || n < 0 || addr+int64(n) > t.size {
		return fmt.Errorf("%w: range [%d,+%d) outside data region of %d bytes",
			engine.ErrOutOfRange, addr, n, t.size)
	}
	return nil
}

// Write persists data arriving at the given cycle, with read-modify-
// write for partial blocks, starting from max(arrival, clock).
func (t *ControllerTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	return t.WriteSpan(arrival, addr, data, nil)
}

// WriteSpan is Write with per-stage latency attribution: the front-end
// wait (arrival → service start) is charged to SpanQueue and the
// controller charges the service stages, so span's total equals
// completion − arrival. nil span is exactly Write.
func (t *ControllerTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	if err := t.checkRange(arrival, addr, len(data)); err != nil {
		return t.now, err
	}
	if arrival > t.now {
		t.now = arrival
	}
	if span != nil {
		span.Reset()
		span.Add(obs.SpanQueue, t.now-arrival)
		t.ctl.SetSpan(span)
		defer t.ctl.SetSpan(nil)
	}
	t.now = t.ctl.WriteRange(t.now, addr, data)
	return t.now, nil
}

// Read fills dst from the given offset, decrypting and verifying every
// covered block, starting from max(arrival, clock).
func (t *ControllerTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	return t.ReadSpan(arrival, addr, dst, nil)
}

// ReadSpan is Read with per-stage latency attribution; see WriteSpan.
func (t *ControllerTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	if err := t.checkRange(arrival, addr, len(dst)); err != nil {
		return t.now, err
	}
	if arrival > t.now {
		t.now = arrival
	}
	if span != nil {
		span.Reset()
		span.Add(obs.SpanQueue, t.now-arrival)
		t.ctl.SetSpan(span)
		defer t.ctl.SetSpan(nil)
	}
	t.now = t.ctl.ReadRange(t.now, addr, dst)
	return t.now, nil
}

// PoolTarget adapts a sharded engine.Pool through its arrival-aware op
// path. Shard clocks advance independently, so an op's completion
// reflects queueing behind its own shard only — the modeled concurrency
// of a multi-controller pool.
type PoolTarget struct {
	pool *engine.Pool
}

// NewPoolTarget wraps a pool.
func NewPoolTarget(p *engine.Pool) *PoolTarget { return &PoolTarget{pool: p} }

// BlockSize returns the access granularity in bytes.
func (t *PoolTarget) BlockSize() int { return t.pool.BlockSize() }

// DataSize returns the pooled protected data region in bytes.
func (t *PoolTarget) DataSize() int64 { return t.pool.DataSize() }

// Write persists data arriving at the given cycle.
func (t *PoolTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	return t.pool.WriteArrive(arrival, addr, data, nil)
}

// Read fills dst from the given offset.
func (t *PoolTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	return t.pool.ReadArrive(arrival, addr, dst, nil)
}

// WriteSpan is Write with per-stage latency attribution: the modeled
// shard backlog the op's critical segment waited behind lands in
// SpanQueue and the owning controller charges the service stages; see
// engine's WriteArrive for the multi-segment semantics.
func (t *PoolTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	return t.pool.WriteArrive(arrival, addr, data, span)
}

// ReadSpan is Read with per-stage latency attribution; see WriteSpan.
func (t *PoolTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return t.pool.ReadArrive(arrival, addr, dst, span)
}

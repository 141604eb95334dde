package engine

// The open-loop request path: WriteArrive and ReadArrive are Write and
// Read with a modeled arrival cycle attached. A shard whose clock is
// behind an op's arrival was idle when the op arrived, so its clock
// jumps forward to the arrival before servicing; a shard whose clock is
// ahead is backlogged, and the op queues behind the work in front of it.
// The returned completion cycle therefore embeds the open-loop latency
// (completion − arrival = queueing delay + service), which is what
// internal/loadgen folds into its latency histograms. Requests spanning
// multiple metadata groups complete when their last segment does.

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// WriteArrive persists data at the given pool offset, modeling the op as
// arriving at the given cycle. It returns the op's completion cycle: the
// latest completion across its shard segments, each serviced no earlier
// than the arrival and no earlier than the shard's prior backlog. A
// non-nil span receives the stage decomposition of the op's critical
// segment — the one whose completion defines the op's — so the stage
// cycles sum exactly to completion − arrival. A nil span attributes
// nothing and allocates nothing.
func (p *Pool) WriteArrive(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	return p.arrive(true, arrival, addr, data, span)
}

// ReadArrive fills dst from the given pool offset, modeling the op as
// arriving at the given cycle; see WriteArrive for the completion and
// span semantics.
func (p *Pool) ReadArrive(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return p.arrive(false, arrival, addr, dst, span)
}

// arrive validates and serves one timed write (or read into buf).
func (p *Pool) arrive(write bool, arrival, addr int64, buf []byte, span *obs.Span) (int64, error) {
	if arrival < 0 {
		return 0, fmt.Errorf("engine: negative arrival cycle %d", arrival)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkRange(addr, len(buf)); err != nil {
		return 0, err
	}
	return p.serveRange(write, arrival, addr, buf, span)
}

// serveRange runs a validated op on the caller's goroutine, split at
// group boundaries into segments served one by one in address order,
// each on its owning shard; a failed segment does not stop the rest. It
// returns the latest segment completion. With attribution the caller's
// span doubles as each segment's scratch, and it ends holding the first
// latest-finishing segment's decomposition (all zero for an empty op).
// Callers hold p.mu.RLock.
func (p *Pool) serveRange(write bool, arrival, addr int64, buf []byte, span *obs.Span) (int64, error) {
	var (
		done int64
		crit obs.Span
		errs []error
	)
	for off := int64(0); off < int64(len(buf)); {
		sh, local := p.locate(addr + off)
		n := min(p.groupBytes-local%p.groupBytes, int64(len(buf))-off)
		span.Reset()
		d, err := p.shards[sh].serve(write, arrival, local, buf[off:off+n], span)
		switch {
		case err != nil:
			errs = append(errs, err)
		case off == 0 || d > done:
			done = d
			if span != nil {
				crit = *span
			}
		}
		off += n
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if span != nil {
		*span = crit
	}
	return done, nil
}

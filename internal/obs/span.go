package obs

// Span is a per-operation latency-attribution record: the modeled
// cycles one write or read spent in each pipeline stage between arrival
// and completion. The controller charges stages with a Cursor so that,
// by construction, the stage cycles of a completed op sum exactly to
// its end-to-end latency (completion − arrival) — the conservation
// property the attribution tests pin for every op of a 200-seed sweep.
//
// Span is a flat value struct; callers preallocate one and pass its
// pointer down the write/read path, so attribution costs no heap
// allocation whether enabled or not. A nil *Span disables charging at
// the cost of one pointer check per boundary.
type Span struct {
	// Stages holds the cycles charged to each Stage, indexed by the
	// Stage constants.
	Stages [NumStages]int64
}

// Reset zeroes every stage so the span can be reused for the next op.
func (s *Span) Reset() {
	if s == nil {
		return
	}
	s.Stages = [NumStages]int64{}
}

// Add charges cycles to one stage. Negative charges are ignored (stage
// cycles only accumulate forward).
func (s *Span) Add(st Stage, cycles int64) {
	if s == nil || cycles <= 0 {
		return
	}
	s.Stages[st] += cycles
}

// Total returns the sum over all stages — for a completed op this
// equals completion − arrival.
func (s *Span) Total() int64 {
	if s == nil {
		return 0
	}
	var t int64
	for _, v := range s.Stages {
		t += v
	}
	return t
}

// Stage identifies one latency-attribution stage of the write/read
// critical path.
type Stage uint8

const (
	// SpanQueue: arrival → service start. For a plain controller this
	// is the front-end clock wait; for a sharded pool it is the modeled
	// backlog of the owning shard (the op sat queued behind earlier
	// ops in that shard's cycle clock).
	SpanQueue Stage = iota
	// SpanFetch: demand fetches of the counter block, MAC block, and
	// (for reads) the data block from NVM or the metadata caches.
	SpanFetch
	// SpanCrypto: AES-CTR pad latency plus MAC/hash latency on the
	// critical path, including counter-overflow re-encryption.
	SpanCrypto
	// SpanTree: the eager integrity-tree update over the secure
	// metadata cache (CacheTreeLevels × hash latency).
	SpanTree
	// SpanWPQ: time waiting on the write-pending queue — the stall
	// when the queue is full plus the scheduling delay until the entry
	// is accepted.
	SpanWPQ
	// SpanPersist: the persistence scheme's metadata-persistence tail
	// (PCB/PUB posting under Thoth, inline metadata writes under the
	// strict baseline) beyond the WPQ acceptance point.
	SpanPersist
	// NumStages is the number of declared stages (array length for
	// Span.Stages).
	NumStages
)

// String returns the stable wire name of the stage (used in the
// attribution report).
func (s Stage) String() string {
	switch s {
	case SpanQueue:
		return "queue"
	case SpanFetch:
		return "fetch"
	case SpanCrypto:
		return "crypto"
	case SpanTree:
		return "tree"
	case SpanWPQ:
		return "wpq"
	case SpanPersist:
		return "persist"
	default:
		return "stage(?)"
	}
}

// Stages returns every declared stage in pipeline order. Consumers that
// key state by Stage — the loadgen per-stage histograms, the
// attribution report — iterate this instead of hard-coding the enum.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Cursor charges successive timeline boundaries of one op to stages.
// The controller's timing code computes a monotone sequence of "ready
// at" cycles (metadata fetched, crypto done, WPQ accepted, persisted);
// Charge attributes the gap since the previous boundary to the given
// stage and advances. Because every gap between the op's start and its
// completion is charged to exactly one stage, the span's total equals
// the op latency by construction.
//
// Cursor is a stack value; with a nil span every method is a no-op, so
// the disabled path costs one predictable branch per boundary and zero
// allocations.
type Cursor struct {
	span *Span
	at   int64
}

// NewCursor returns a cursor charging into span, starting at cycle
// start (the op's service start).
func NewCursor(span *Span, start int64) Cursor {
	return Cursor{span: span, at: start}
}

// Charge attributes the cycles between the cursor and upto to stage st
// and advances the cursor. Boundaries at or before the cursor charge
// nothing (the stage was off the critical path).
func (c *Cursor) Charge(st Stage, upto int64) {
	if c.span == nil || upto <= c.at {
		return
	}
	c.span.Stages[st] += upto - c.at
	c.at = upto
}

package loadgen

import "fmt"

// ArrivalKind selects a tenant's arrival process.
type ArrivalKind uint8

const (
	// ArriveConstant issues one request every mean gap exactly (a
	// perfectly paced client). With a zero mean every arrival is at cycle
	// 0, which degenerates the open loop into a closed loop — the
	// property the closed-loop differential test pins.
	ArriveConstant ArrivalKind = iota
	// ArriveUniform draws integer gaps uniformly from [1, 2*mean-1].
	ArriveUniform
	// ArrivePoisson draws exponentially distributed gaps (a memoryless
	// Poisson process), the open-loop standard model.
	ArrivePoisson
	// ArriveBursty is a two-state Markov-modulated on/off process: during
	// an ON period arrivals are Poisson at (On+Off)/On times the long-run
	// average rate, which keeps that average at 1/MeanCycles; OFF periods
	// are silent. Sojourn times in each state are exponential (means
	// OnCycles / OffCycles).
	ArriveBursty
)

// String names the kind for reports.
func (k ArrivalKind) String() string {
	switch k {
	case ArriveConstant:
		return "constant"
	case ArriveUniform:
		return "uniform"
	case ArrivePoisson:
		return "poisson"
	case ArriveBursty:
		return "bursty"
	default:
		return "arrival?"
	}
}

// ArrivalSpec declares an arrival process. MeanCycles is the long-run
// mean inter-arrival gap in cycles across the whole tenant population:
// the driver multiplies it by the tenant count for each tenant's private
// process, so the total offered load is invariant under the -tenants
// knob (more tenants each send proportionally less).
type ArrivalSpec struct {
	Kind       ArrivalKind
	MeanCycles int64

	// Bursty parameters. OnCycles and OffCycles are the mean sojourn
	// times of the ON and OFF states in cycles (absolute, not scaled by
	// tenant count — tenants burst independently).
	OnCycles  int64
	OffCycles int64
}

// validate rejects unusable specs.
func (a ArrivalSpec) validate() error {
	if a.MeanCycles < 0 {
		return fmt.Errorf("loadgen: arrival mean %d cycles is negative", a.MeanCycles)
	}
	if a.Kind == ArriveBursty && (a.OnCycles <= 0 || a.OffCycles <= 0) {
		return fmt.Errorf("loadgen: bursty arrivals need positive on/off sojourns, got %d/%d",
			a.OnCycles, a.OffCycles)
	}
	return nil
}

// arrivalProc is one tenant's arrival process state. next holds the
// absolute cycle of the tenant's pending arrival; advance moves it to
// the following one.
type arrivalProc struct {
	spec ArrivalSpec
	r    rng
	mean float64 // per-tenant mean gap (population mean × tenants)
	next int64

	// Bursty state.
	on       bool
	stateEnd int64 // absolute cycle the current sojourn ends
}

// newArrivalProc builds the process for tenant idx of a population and
// schedules its first arrival. Constant processes are phase-staggered
// by tenant index: without the offset every perfectly paced tenant
// would fire on the same cycle, turning a smooth aggregate load into
// synchronized batches (an artifact no real client population shows).
// The random kinds need no stagger — their seeds desynchronize them.
func newArrivalProc(spec ArrivalSpec, tenants, idx int, seed int64) arrivalProc {
	p := arrivalProc{
		spec: spec,
		r:    newRNG(seed),
		mean: float64(spec.MeanCycles) * float64(tenants),
	}
	if spec.Kind == ArriveBursty {
		p.on = true
		p.stateEnd = p.r.ExpInt(float64(spec.OnCycles))
	}
	if spec.Kind == ArriveConstant {
		p.next = int64(p.mean) * int64(idx) / int64(tenants)
	}
	p.advance()
	return p
}

// gap draws one inter-arrival gap for the memoryless kinds.
func (p *arrivalProc) gap() int64 {
	switch p.spec.Kind {
	case ArriveConstant:
		return int64(p.mean)
	case ArriveUniform:
		m := int64(p.mean)
		if m <= 1 {
			return m
		}
		return 1 + p.r.Int63n(2*m-1)
	default: // ArrivePoisson and the ON state of ArriveBursty
		return p.r.ExpInt(p.mean)
	}
}

// advance moves next to the following arrival.
func (p *arrivalProc) advance() {
	if p.spec.Kind != ArriveBursty {
		p.next += p.gap()
		return
	}
	// ON arrivals run at (On+Off)/On times the mean rate, so the
	// long-run average rate is 1/mean.
	onMean := p.mean / (float64(p.spec.OnCycles+p.spec.OffCycles) / float64(p.spec.OnCycles))
	t := p.next
	for {
		if p.on {
			g := p.r.ExpInt(onMean)
			if t+g <= p.stateEnd {
				p.next = t + g
				return
			}
		}
		// No arrival before the sojourn ends (OFF states never arrive;
		// an ON overshoot is discarded — the exponential is memoryless,
		// so restarting the draw at the boundary preserves the process).
		t = p.stateEnd
		p.on = !p.on
		mean := p.spec.OffCycles
		if p.on {
			mean = p.spec.OnCycles
		}
		p.stateEnd = t + p.r.ExpInt(float64(mean))
	}
}

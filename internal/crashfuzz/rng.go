// Package crashfuzz is a randomized crash-injection differential tester
// for the full Thoth stack. Every case derives deterministically from a
// single int64 seed: a generated workload trace, a scaled-down machine
// configuration, a crash point sampled either uniformly over the trace
// or adversarially at the operation boundaries where the ADR domain is
// under the most pressure (PCB flushes into the PUB, PUB evictions,
// counter overflows, WPQ drains), and a matrix of variants to run it
// under: every persistence scheme on one controller, and the seed's
// scheme on a sharded pool that crashes a seed-derived subset of its
// shards. Check runs each variant through one path: the trace goes
// through the public pool API, the crash image is recovered by the
// serial reference engine and by parallel recovery at several worker
// counts (which must agree byte-for-byte), and every block the workload
// was acknowledged to have persisted before the crash is read back and
// compared against a golden shadow model and across variants. Any
// divergence — a panic, a recovery failure, lost or corrupted data, or
// two executions that disagree — is reported as a Violation with a
// one-line reproduction: crashfuzz.Replay(seed).
package crashfuzz

// rng is a splitmix64 pseudo-random generator. It is written out by hand
// (rather than using math/rand) so that the byte stream — and therefore
// every derived case — is stable across Go releases; a seed printed by a
// failing run years from now must still reproduce the same trace.
type rng struct{ state uint64 }

// newRNG seeds a generator. Distinct seeds give independent streams.
func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
}

// Uint64 returns the next value of the splitmix64 sequence.
func (r *rng) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *rng) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Pct reports true with probability p/100.
func (r *rng) Pct(p int) bool { return r.Intn(100) < p }

// Byte returns one pseudo-random byte.
func (r *rng) Byte() byte { return byte(r.Uint64()) }

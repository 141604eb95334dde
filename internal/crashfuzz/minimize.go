package crashfuzz

// Minimize shrinks a failing case to a smaller trace that still fails,
// using delta debugging (ddmin): the executed prefix is partitioned into
// chunks, and complements of chunks are retried at progressively finer
// granularity, keeping any reduction that preserves the failure. The
// result is 1-minimal with respect to chunk removal: removing any single
// remaining operation makes the failure disappear. Cases that do not
// fail are returned unchanged.
//
// Minimization re-executes the case many times; use it on the short
// traces the fuzzer produces, not on production-sized workloads. Every
// variant of the case, pool variants included, runs on each attempt.
func Minimize(c Case) Case {
	failing := func(c Case) bool { return Check(c).Failed() }
	if !failing(c) {
		return c
	}
	// Ops at index >= CrashIdx never execute; drop them first.
	base := c
	base.Trace = append([]Op(nil), c.Trace[:c.CrashIdx]...)
	base.CrashIdx = len(base.Trace)
	if !failing(base) {
		return c // failure depends on unexecuted ops somehow; keep original
	}

	n := 2
	for len(base.Trace) >= 2 {
		chunk := (len(base.Trace) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(base.Trace); lo += chunk {
			hi := lo + chunk
			if hi > len(base.Trace) {
				hi = len(base.Trace)
			}
			cand := base
			cand.Trace = make([]Op, 0, len(base.Trace)-(hi-lo))
			cand.Trace = append(cand.Trace, base.Trace[:lo]...)
			cand.Trace = append(cand.Trace, base.Trace[hi:]...)
			cand.CrashIdx = len(cand.Trace)
			if failing(cand) {
				base = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(base.Trace) {
				break
			}
			n *= 2
			if n > len(base.Trace) {
				n = len(base.Trace)
			}
		}
	}
	return base
}

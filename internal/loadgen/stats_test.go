package loadgen

import (
	"math"
	"sort"
	"testing"
)

// collectGaps draws n inter-arrival gaps from a fresh process.
func collectGaps(spec ArrivalSpec, tenants int, seed int64, n int) []float64 {
	p := newArrivalProc(spec, tenants, 0, seed)
	gaps := make([]float64, n)
	prev := p.next
	for i := range gaps {
		p.advance()
		gaps[i] = float64(p.next - prev)
		prev = p.next
	}
	return gaps
}

// TestPoissonInterarrivalKS verifies the Poisson process statistically:
// its inter-arrival gaps must follow an exponential distribution. The
// Kolmogorov-Smirnov statistic against Exp(mean) must stay under the
// 1% critical value (1.63/sqrt(n)), and the empirical mean must sit
// within a few percent of the target.
func TestPoissonInterarrivalKS(t *testing.T) {
	const mean = 10000.0
	const n = 5000
	gaps := collectGaps(ArrivalSpec{Kind: ArrivePoisson, MeanCycles: mean}, 1, 12345, n)

	var sum float64
	for _, g := range gaps {
		sum += g
	}
	if got := sum / n; math.Abs(got-mean)/mean > 0.03 {
		t.Fatalf("empirical mean gap %.1f, want %.0f ±3%%", got, mean)
	}

	sort.Float64s(gaps)
	var d float64
	for i, g := range gaps {
		f := 1 - math.Exp(-g/mean)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	if crit := 1.63 / math.Sqrt(n); d > crit {
		t.Fatalf("KS statistic %.4f exceeds 1%% critical value %.4f: gaps are not exponential", d, crit)
	}
}

// TestPoissonMeanScalesWithTenants pins the population-invariant load
// contract: a tenant in a population of k sees a per-tenant mean gap of
// k times the aggregate mean.
func TestPoissonMeanScalesWithTenants(t *testing.T) {
	const mean = 2000.0
	const n = 4000
	gaps := collectGaps(ArrivalSpec{Kind: ArrivePoisson, MeanCycles: mean}, 8, 99, n)
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	want := mean * 8
	if got := sum / n; math.Abs(got-want)/want > 0.05 {
		t.Fatalf("8-tenant per-tenant mean gap %.1f, want %.0f ±5%%", got, want)
	}
}

// TestUniformGapsInRange verifies the uniform process stays inside
// [1, 2*mean-1] and centers on the mean.
func TestUniformGapsInRange(t *testing.T) {
	const mean = 1000.0
	const n = 4000
	gaps := collectGaps(ArrivalSpec{Kind: ArriveUniform, MeanCycles: mean}, 1, 7, n)
	var sum float64
	for _, g := range gaps {
		if g < 1 || g > 2*mean-1 {
			t.Fatalf("uniform gap %g outside [1, %g]", g, 2*mean-1)
		}
		sum += g
	}
	if got := sum / n; math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("uniform mean gap %.1f, want %.0f ±5%%", got, mean)
	}
}

// TestConstantGapsExact verifies the constant process is perfectly
// paced.
func TestConstantGapsExact(t *testing.T) {
	gaps := collectGaps(ArrivalSpec{Kind: ArriveConstant, MeanCycles: 750}, 1, 1, 100)
	for _, g := range gaps {
		if g != 750 {
			t.Fatalf("constant gap %g, want 750", g)
		}
	}
}

// TestBurstyLongRunRate verifies the Markov-modulated process preserves
// the long-run average rate (ON runs at (On+Off)/On times it) while
// actually bursting: ON gaps are short, OFF boundaries inject long
// silences.
func TestBurstyLongRunRate(t *testing.T) {
	spec := ArrivalSpec{Kind: ArriveBursty, MeanCycles: 3000,
		OnCycles: 200_000, OffCycles: 400_000}
	const n = 50000
	gaps := collectGaps(spec, 1, 4242, n)
	var sum float64
	long := 0
	for _, g := range gaps {
		sum += g
		if g > 100_000 {
			long++
		}
	}
	if got := sum / n; math.Abs(got-3000)/3000 > 0.10 {
		t.Fatalf("bursty long-run mean gap %.1f, want 3000 ±10%%", got)
	}
	if long < 50 {
		t.Fatalf("only %d gaps exceed 100k cycles: no OFF silences observed", long)
	}
	// Index of dispersion of the gaps: an on/off process is far more
	// variable than Poisson (exponential gaps have CV = 1).
	mean := sum / n
	var v float64
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(v/n) / mean; cv < 1.5 {
		t.Fatalf("bursty gap coefficient of variation %.2f, want > 1.5 (burstier than Poisson)", cv)
	}
}

// TestZipfChiSquared verifies zipfian draws match the target
// distribution: a chi-squared test over the 16 hottest ranks plus the
// tail must pass at the 0.1% level, and a log-log least-squares fit of
// the rank frequencies must recover the skew parameter.
func TestZipfChiSquared(t *testing.T) {
	const domain = 1024
	const s = 1.2
	const draws = 200000
	tab := newZipfTable(domain, s)
	r := newRNG(7)
	counts := make([]int64, domain)
	for i := 0; i < draws; i++ {
		counts[tab.rank(r.Float64())]++
	}

	total := tab.cum[domain-1]
	weight := func(k int) float64 { return 1 / math.Pow(float64(k+1), s) }

	var chi2 float64
	var tailObs, tailExp float64
	for k := 0; k < domain; k++ {
		exp := float64(draws) * weight(k) / total
		if k < 16 {
			d := float64(counts[k]) - exp
			chi2 += d * d / exp
		} else {
			tailObs += float64(counts[k])
			tailExp += exp
		}
	}
	d := tailObs - tailExp
	chi2 += d * d / tailExp
	// 17 cells, 16 degrees of freedom: chi2(0.999, 16) ≈ 39.3.
	if chi2 > 39.3 {
		t.Fatalf("zipf chi-squared %.1f exceeds 39.3 (16 dof, 0.1%% level)", chi2)
	}

	// Fit log(freq) = -s*log(rank) + c over the 32 hottest ranks.
	var sx, sy, sxx, sxy float64
	const fit = 32
	for k := 0; k < fit; k++ {
		x := math.Log(float64(k + 1))
		y := math.Log(float64(counts[k]) / draws)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (fit*sxy - sx*sy) / (fit*sxx - sx*sx)
	if got := -slope; math.Abs(got-s) > 0.1 {
		t.Fatalf("fitted zipf skew %.3f, want %.1f ±0.1", got, s)
	}
}

// TestSequentialCoversInOrder pins the scan pattern.
func TestSequentialCoversInOrder(t *testing.T) {
	k := newKeyPicker(KeySpec{Kind: KeysSequential}, nil, 16, 0)
	r := newRNG(1)
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 16; i++ {
			if got := k.pick(&r); got != i {
				t.Fatalf("sequential pick %d of round %d = %d, want %d", i, round, got, i)
			}
		}
	}
}

// TestStridedCoversAll verifies the co-prime stride walk touches every
// block of the partition exactly once per lap.
func TestStridedCoversAll(t *testing.T) {
	for _, stride := range []int64{0, 2, 33, 64, 100} {
		k := newKeyPicker(KeySpec{Kind: KeysStrided}, nil, 64, stride)
		r := newRNG(1)
		seen := make(map[int64]bool)
		for i := 0; i < 64; i++ {
			blk := k.pick(&r)
			if blk < 0 || blk >= 64 {
				t.Fatalf("stride %d pick %d out of range", stride, blk)
			}
			if seen[blk] {
				t.Fatalf("stride %d revisits block %d before covering the partition", stride, blk)
			}
			seen[blk] = true
		}
	}
}

// TestSpecValidation pins the rejection paths.
func TestSpecValidation(t *testing.T) {
	bad := []Scenario{
		{Name: "t0", Tenants: 0, Arrival: ArrivalSpec{Kind: ArrivePoisson, MeanCycles: 1}},
		{Name: "neg", Tenants: 1, Ops: -1, Arrival: ArrivalSpec{Kind: ArrivePoisson, MeanCycles: 1}},
		{Name: "rp", Tenants: 1, ReadPercent: 101, Arrival: ArrivalSpec{Kind: ArrivePoisson, MeanCycles: 1}},
		{Name: "mean", Tenants: 1, Arrival: ArrivalSpec{Kind: ArrivePoisson, MeanCycles: -1}},
		{Name: "burst", Tenants: 1, Arrival: ArrivalSpec{Kind: ArriveBursty, MeanCycles: 1}},
		{Name: "zipf", Tenants: 1, Arrival: ArrivalSpec{Kind: ArrivePoisson, MeanCycles: 1},
			Keys: KeySpec{Kind: KeysZipfian}},
	}
	for _, s := range bad {
		if err := s.validate(); err == nil {
			t.Fatalf("scenario %q validated, want error", s.Name)
		}
	}
	for _, s := range Scenarios() {
		if err := s.validate(); err != nil {
			t.Fatalf("matrix scenario %q invalid: %v", s.Name, err)
		}
	}
}

// TestScenarioByName pins lookup and the error listing.
func TestScenarioByName(t *testing.T) {
	for _, name := range ScenarioNames() {
		s, err := ScenarioByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScenarioByName(%q) = %q, %v", name, s.Name, err)
		}
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

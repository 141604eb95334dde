package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// benchmarkJSON is the benchmark definition, relative to the repository
// root; -compare applies its bounds.
const benchmarkJSON = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares one metric of one workload between a base run a and
// a new run b. Modeled metrics must be bit-equal. A host metric with a
// bound regresses when b's median is worse than a's by more than the
// bound; it is unresolved when either run's interquartile spread is
// wider than the bound, unless every rep of b beats every rep of a.
// Host metrics without a bound (the per-layer ones) are reported only.
func verdict(a, b *series, bound float64, hasBound bool) (string, bool) {
	if a.Clock == modeledClock {
		if a.Median == b.Median {
			return "same", false
		}
		return "changed", true
	}
	if !hasBound {
		return "info", false
	}
	worse := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	if a.spread() > bound || b.spread() > bound {
		if allBetter(a, b) {
			return "better", false
		}
		return "unresolved", false
	}
	if worse > bound {
		return "regression", true
	}
	if -worse > bound {
		return "better", false
	}
	return "same", false
}

// allBetter reports whether every rep of b beats every rep of a.
func allBetter(a, b *series) bool {
	for _, x := range a.Reps {
		for _, y := range b.Reps {
			if (a.Better == "higher") != (y > x) || y == x {
				return false
			}
		}
	}
	return len(a.Reps) > 0 && len(b.Reps) > 0
}

// compareFiles compares two results files under the BENCHMARK.json
// bounds and returns 1 if anything regressed.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	def, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, err := readResults(aPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(bPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stderr, "bench: seeds differ (%d vs %d); modeled metrics compare only at one seed\n", a.Seed, b.Seed)
		return 2
	}
	if compareResults(bounds, a, b, stdout) {
		return 1
	}
	return 0
}

// compareResults prints one verdict per (metric, workload) pair of the
// base run a and reports whether any pair regressed. A workload or a
// metric that a reports and b does not is a regression: a run that
// crashed or stopped measuring must not pass as unchanged.
func compareResults(bounds map[string]float64, a, b *results, w io.Writer) bool {
	var names []string
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	const row = "%-28s %-14s %14s %14s %8s %s\n"
	fmt.Fprintf(w, row, "metric", "workload", "base", "new", "delta", "verdict")
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	failed := false
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wb == nil {
			fmt.Fprintf(w, row, "workload", n, "", "missing", "", "regression")
			failed = true
			continue
		}
		if !wb.Correct {
			fmt.Fprintf(w, row, "correct", n, "", "false", "", "regression")
			failed = true
		}
		for _, d := range append(catalog(), errorRate) {
			sa, sb := wa.Metrics[d.name], wb.Metrics[d.name]
			switch {
			case sa == nil:
				continue
			case sb == nil:
				fmt.Fprintf(w, row, d.name, n, num(sa.Median), "missing", "", "regression")
				failed = true
				continue
			}
			bound, hasBound := bounds[d.name]
			v, bad := verdict(sa, sb, bound, hasBound)
			failed = failed || bad
			delta := ""
			if sa.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(sb.Median-sa.Median)/sa.Median)
			}
			fmt.Fprintf(w, row, d.name, n, num(sa.Median), num(sb.Median), delta, v)
		}
	}
	return failed
}

// Package metrics holds the simulator's one distribution type: a
// fixed-bucket log2 Histogram of int64 observations, fed with zero heap
// allocations (TestObserveZeroAlloc and BenchmarkHistogramObserve pin
// it) and safe to read while it is written.
//
// The aggregate counters in internal/stats answer "how much" for one
// run and the events in internal/obs answer "when"; a Histogram answers
// "how is it distributed". internal/loadgen keeps one per op kind and
// one per tenant for open-loop latency, and summarizes them as
// P50/P95/P99.
package metrics

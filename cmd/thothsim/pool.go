package main

// The -shards mode: instead of the single-controller workload harness,
// drive a sharded engine.Pool with seeded random block persists, report
// aggregate throughput (ops/sec), and optionally crash a shard subset
// and recover it.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	thoth "repro"
	"repro/internal/config"
)

// dumpFlight writes one flight-recorder snapshot as a JSONL trace file
// under dir (created if missing) — the schema cmd/tracecheck validates.
func dumpFlight(dir, name string, rec thoth.FlightRecord, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flight recorder: %d events (%d dropped of %d total) -> %s\n",
		len(rec.Events), rec.Dropped, rec.Count, path)
	return nil
}

// poolRNG is a splitmix64 generator: the pool drivers are seeded and
// deterministic so two runs at the same flags issue identical traffic.
type poolRNG struct{ s uint64 }

func (r *poolRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4568b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poolBatch builds one batch of block-aligned random writes over the
// pool's data space and records each block's final payload in golden.
func poolBatch(pool *thoth.Pool, rng *poolRNG, n int, golden map[int64][]byte) []thoth.WriteReq {
	bs := int64(pool.BlockSize())
	nBlocks := uint64(pool.DataSize() / bs)
	batch := make([]thoth.WriteReq, n)
	for i := range batch {
		addr := int64(rng.next()%nBlocks) * bs
		data := make([]byte, bs)
		for o := 0; o < len(data); o += 8 {
			v := rng.next()
			for b := 0; b < 8 && o+b < len(data); b++ {
				data[o+b] = byte(v >> (8 * b))
			}
		}
		batch[i] = thoth.WriteReq{Addr: addr, Data: data}
		if golden != nil {
			golden[addr] = data
		}
	}
	return batch
}

// poolCrashSubset crashes every even-indexed shard: a fixed, documented
// subset so the recovery report is comparable across runs (the
// randomized subsets live in the crashfuzz differential).
func poolCrashSubset(shards int) []bool {
	mask := make([]bool, shards)
	for i := 0; i < shards; i += 2 {
		mask[i] = true
	}
	return mask
}

// runPoolBench implements `thothsim -shards N`: persist `blocks` seeded
// random blocks through the pool in batches of `depth`, report
// wall-clock ops/sec and the pooled stats, and with -crash take down
// the even-indexed shards, recover them in parallel, reopen, and verify
// every written block against the driver's golden map.
func runPoolBench(cfg config.Config, shards, blocks, depth int, crash, verify bool, recWorkers int, flightDir string, stdout, stderr io.Writer) int {
	if depth <= 0 {
		depth = 64
	}
	pool, err := thoth.NewPool(cfg, shards)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim: pool:", err)
		return 1
	}
	rng := &poolRNG{s: uint64(cfg.Seed)}
	golden := make(map[int64][]byte)
	start := time.Now()
	for written := 0; written < blocks; {
		n := depth
		if blocks-written < n {
			n = blocks - written
		}
		if err := pool.PersistBatch(poolBatch(pool, rng, n, golden)); err != nil {
			fmt.Fprintln(stderr, "thothsim: pool persist:", err)
			return 1
		}
		written += n
	}
	elapsed := time.Since(start)

	st, err := pool.Stats()
	if err != nil {
		fmt.Fprintln(stderr, "thothsim: pool stats:", err)
		return 1
	}
	cycle, _ := pool.Elapsed()
	fmt.Fprintf(stdout, "pool shards=%d scheme=%s block=%dB blocks=%d batch=%d\n",
		shards, cfg.Scheme, cfg.BlockSize, blocks, depth)
	fmt.Fprintf(stdout, "wall=%v ops/sec=%.0f cycles=%d (makespan across shards)\n",
		elapsed.Round(time.Millisecond), float64(blocks)/elapsed.Seconds(), cycle)
	fmt.Fprintln(stdout, st.String())
	for i := 0; i < shards; i++ {
		ss, err := pool.ShardStats(i)
		if err != nil {
			fmt.Fprintln(stderr, "thothsim: pool stats:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  shard %d: cycles=%d writes=%d\n", i, ss.Cycles, ss.TotalWrites())
	}

	if verify {
		if err := pool.VerifyCrashConsistency(); err != nil {
			fmt.Fprintln(stderr, "thothsim: pool verify:", err)
			return 1
		}
		fmt.Fprintln(stdout, "verify: all shards consistent")
	}

	if !crash {
		if _, err := pool.Shutdown(); err != nil {
			fmt.Fprintln(stderr, "thothsim: pool shutdown:", err)
			return 1
		}
		return 0
	}

	mask := poolCrashSubset(shards)
	img, err := pool.CrashShards(mask)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim: pool crash:", err)
		return 1
	}
	fmt.Fprintf(stdout, "crashed shards %v\n", mask)
	if flightDir != "" {
		for i, crashed := range mask {
			if !crashed {
				continue
			}
			name := fmt.Sprintf("flight-shard%d.jsonl", i)
			if err := dumpFlight(flightDir, name, img.Flights[i], stdout); err != nil {
				fmt.Fprintln(stderr, "thothsim: flight dump:", err)
				return 1
			}
		}
	}
	rep, err := thoth.RecoverPool(cfg, shards, img, thoth.RecoverOpts{Workers: recWorkers})
	if err != nil {
		fmt.Fprintln(stderr, "thothsim: pool recovery failed:", err)
		return 1
	}
	fmt.Fprintln(stdout, rep)
	pool2, err := thoth.OpenPool(cfg, shards, img)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim: pool reopen:", err)
		return 1
	}
	defer pool2.Shutdown()
	for addr, want := range golden {
		got, err := pool2.Read(addr, len(want))
		if err != nil {
			fmt.Fprintf(stderr, "thothsim: pool block %#x unreadable after recovery: %v\n", addr, err)
			return 1
		}
		for i := range want {
			if got[i] != want[i] {
				fmt.Fprintf(stderr, "thothsim: pool block %#x corrupted across crash\n", addr)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "recovery verified: %d blocks match the pre-crash payloads\n", len(golden))
	return 0
}

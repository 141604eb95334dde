package harness

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/config"
)

// ReplayResult summarizes a trace replay.
type ReplayResult struct {
	Ops    int64
	Cycles int64
	// Stats is a snapshot of the controller statistics.
	Stats interface{ String() string }
}

// Replay drives the secure memory controller from a textual memory
// trace, one operation per line:
//
//	L <addr> <size>   load
//	S <addr> <size>   store
//	P <addr> <size>   persist (clwb of the covered blocks)
//	F                 fence (sfence)
//	# ...             comment, ignored
//
// Addresses are data-region offsets (hex with 0x prefix, or decimal).
// The replay uses the same LLC filter, plaintext model and persistence
// semantics as the built-in workloads, so externally captured traces
// (e.g. from instrumented applications) run against any scheme.
func Replay(cfg config.Config, r io.Reader) (*ReplayResult, error) {
	runner, err := NewRunner(RunConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	dataBytes := runner.Controller().Layout().DataBytes

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ops int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		if op == "F" {
			runner.Fence()
			ops++
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("replay: line %d: want `%s <addr> <size>`", lineNo, op)
		}
		addr, err := strconv.ParseInt(strings.TrimPrefix(fields[1], "0x"), baseOf(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad address: %v", lineNo, err)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("replay: line %d: bad size %q", lineNo, fields[2])
		}
		if addr < 0 || size > dataBytes || addr > dataBytes-size {
			return nil, fmt.Errorf("replay: line %d: range [%d,+%d) outside the %d-byte data region",
				lineNo, addr, size, dataBytes)
		}
		switch op {
		case "L":
			runner.Load(addr, size)
		case "S":
			runner.Store(addr, size)
		case "P":
			runner.Persist(addr, size)
		default:
			return nil, fmt.Errorf("replay: line %d: unknown op %q", lineNo, op)
		}
		ops++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	runner.Fence()
	runner.Controller().SyncStats()
	return &ReplayResult{
		Ops:    ops,
		Cycles: runner.Now(),
		Stats:  runner.Controller().Stats(),
	}, nil
}

func baseOf(s string) int {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return 16
	}
	return 10
}

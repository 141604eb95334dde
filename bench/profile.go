package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler accumulates host CPU time per layer over the profiled
// sections of traced reps. A nil profiler is off: its methods do
// nothing, so untraced reps pay no profiling cost.
type profiler struct {
	buf     bytes.Buffer
	on      bool
	ns      map[string]int64 // CPU nanoseconds charged to each layer
	samples int64
	err     error
}

func newProfiler() *profiler { return &profiler{ns: make(map[string]int64)} }

// start begins a profiled section.
func (p *profiler) start() {
	if p == nil || p.on || p.err != nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = fmt.Errorf("start CPU profile: %w", err)
		return
	}
	p.on = true
}

// stop ends the current section and charges its samples to layers.
func (p *profiler) stop() {
	if p == nil || !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	if err := chargeProfile(p.buf.Bytes(), p.ns, &p.samples); err != nil && p.err == nil {
		p.err = err
	}
}

// totalNS is the CPU time of every profiled section.
func (p *profiler) totalNS() int64 {
	var t int64
	for _, v := range p.ns {
		t += v
	}
	return t
}

// layerOf names the layer a function belongs to: the repro/internal
// package for repository code, "bench" for this command (package main),
// and "" for everything else (standard library and runtime).
func layerOf(fn string) string {
	const pre = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, pre); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// chargeLayer picks the layer a stack is charged to: the innermost
// repository frame, so standard-library crypto and runtime allocation,
// map and memclr time land on the package that called them. A stack
// with no repository frame is garbage collection or scheduling work
// and goes to "runtime".
func chargeLayer(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// chargeProfile decodes a gzipped pprof CPU profile and adds each
// sample's CPU nanoseconds to the layer chargeLayer picks for its stack.
// It reads only the fields it needs of the profile.proto format:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1} and Function{id=1, name=2}.
func chargeProfile(gz []byte, ns map[string]int64, samples *int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs     []string
		sampleLs []sample
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			sampleLs = append(sampleLs, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	var frames []string
	for _, s := range sampleLs {
		if len(s.values) < 2 {
			return errors.New("decode CPU profile: sample without a cpu value")
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		ns[chargeLayer(frames)] += int64(s.values[1])
		*samples += int64(s.values[0])
	}
	return nil
}

// fields walks the top-level fields of a protobuf message, calling fn
// with each field number and its varint value (wire type 0) or bytes
// (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, in either the
// packed (bytes) or the unpacked (one value) encoding.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning the value and the bytes
// consumed (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

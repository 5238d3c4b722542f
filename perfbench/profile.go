package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Attribution rule: a sample is charged to the innermost stack frame that
// belongs to a repo module (newtos/internal/<module>) or to the benchmark
// itself; a stack with neither is charged to "runtime".

const (
	repoPrefix    = "newtos/internal/"
	benchModule   = "benchmark"
	runtimeModule = "runtime"
)

// benchPrefixes name the benchmark's functions: "main." in the command,
// its import path in its test binary.
var benchPrefixes = []string{"main.", "newtos/perfbench."}

// moduleOf names the module a function belongs to, or "" when it is not
// repo or benchmark code. Function names are as the runtime and pprof print
// them: "newtos/internal/nic.(*wireDir).run", "main.runBulk.func1".
func moduleOf(fn string) string {
	for _, p := range benchPrefixes {
		if strings.HasPrefix(fn, p) {
			return benchModule
		}
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// attribute charges one stack, given innermost frame first, to a module.
func attribute(frames []string) string {
	for _, fn := range frames {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return runtimeModule
}

// harnessModules are the parts of the measurement that are not the stack:
// the emulated device and wire, the simulated kernel IPC, and the
// benchmark's own load generator.
var harnessModules = []string{"nic", "kipc", benchModule}

// cpuShares decodes a CPU profile (the gzipped protobuf that
// runtime/pprof writes) and returns each module's share of its samples,
// with the total sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]float64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, id := range s.locations {
			frames = append(frames, p.locations[id]...)
		}
		counts[attribute(frames)] += float64(s.values[0])
		total += s.values[0]
	}
	return shares(counts), total, nil
}

// allocSnapshot is the runtime's allocation profile: the sampled
// allocations so far per profile bucket. The runtime keeps one bucket per
// stack and object size.
type allocSnapshot map[allocBucket]allocCount

type allocBucket struct {
	stk  [32]uintptr
	size int64
}

type allocCount struct{ bytes, objects int64 }

// takeAllocSnapshot reads runtime.MemProfile after a GC, so the profile
// covers every allocation made before the call.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		k := allocBucket{r.Stack0, r.AllocBytes / r.AllocObjects}
		c := snap[k]
		snap[k] = allocCount{c.bytes + r.AllocBytes, c.objects + r.AllocObjects}
	}
	return snap
}

// allocBytes estimates the bytes allocated between two snapshots, keyed by
// key(stack, innermost frame first). The profile samples about one
// allocation per rate bytes, so an object of s bytes is recorded with
// probability 1-exp(-s/rate); each bucket's sampled bytes are scaled back
// by that probability, as pprof does, or small objects would count for
// almost nothing. rate is runtime.MemProfileRate while the allocations
// were made.
func allocBytes(before, after allocSnapshot, rate int, key func([]string) string) map[string]float64 {
	out := make(map[string]float64)
	for k, c := range after {
		d := c.bytes - before[k].bytes
		if d <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(k.size)/float64(rate)))
		}
		out[key(stackFuncs(k.stk))] += float64(d) * scale
	}
	return out
}

// allocShares returns each module's share of the bytes allocated between
// two snapshots.
func allocShares(before, after allocSnapshot, rate int) map[string]float64 {
	return shares(allocBytes(before, after, rate, attribute))
}

// shares divides each value by their sum.
func shares(v map[string]float64) map[string]float64 {
	var total float64
	for _, x := range v {
		total += x
	}
	out := make(map[string]float64, len(v))
	for k, x := range v {
		out[k] = x / total
	}
	return out
}

// stackFuncs symbolizes a profile stack, innermost frame first.
func stackFuncs(stk [32]uintptr) []string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// decodedProfile is the part of a pprof profile attribution needs.
type decodedProfile struct {
	samples []decodedSample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type decodedSample struct {
	locations []uint64
	values    []int64
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// decodeProfile reads a gzipped pprof profile with the standard library
// only: gzip, then a minimal protobuf reader.
func decodeProfile(data []byte) (*decodedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{} // function id -> name string index
		locs    = map[uint64][]uint64{}
		samples []decodedSample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSample:
			var s decodedSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					s.locations = appendVarints(s.locations, wire, v, b)
				case fSampleValue:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &decodedProfile{samples: samples, locations: make(map[uint64][]string, len(locs))}
	for id, fns := range locs {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locations[id] = names
	}
	return p, nil
}

// Protobuf wire types used by pprof.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

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

// layers are the modules under internal/ the profile folds into, in
// the order the metrics are printed.
var layers = []string{
	"vtime", "workload", "sqlparser", "plancache", "optimizer", "memo",
	"u64hash", "stats", "core", "gateway", "broker", "mem", "bufferpool",
	"executor", "storage", "engine", "cluster", "fault", "metrics", "harness",
}

// Buckets for samples no layer frame claims.
const (
	// bucketOther holds samples whose stacks reach repository code only
	// outside the layers (scenario resolution, the benchmark itself).
	bucketOther = "other"
	// bucketGC holds samples with no repository frame at all: garbage
	// collection workers and the scheduler.
	bucketGC = "runtime.gc"
)

// module is the repository's module path; layers live under
// module/internal.
const module = "compilegate"

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// frameBucket classifies one function name: a layer name, bucketOther
// for repository code outside the layers, or "" for anything else.
func frameBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, module+"/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if isLayer[rest] {
			return rest
		}
		return bucketOther
	}
	if strings.HasPrefix(fn, module+"/") || strings.HasPrefix(fn, module+".") || strings.HasPrefix(fn, "main.") {
		return bucketOther
	}
	return ""
}

// fold attributes one sample to the innermost layer frame on its
// stack (funcs innermost first), so standard-library work lands in the
// layer that called it. Repository frames outside the layers (catalog,
// plan, ...) are skipped the same way, unless no layer frame exists.
func fold(funcs []string) string {
	other := false
	for _, fn := range funcs {
		switch b := frameBucket(fn); b {
		case "":
		case bucketOther:
			other = true
		default:
			return b
		}
	}
	if other {
		return bucketOther
	}
	return bucketGC
}

// shares normalizes per-bucket weights into shares of their total.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(w))
	for k, v := range w {
		if total > 0 {
			out[k] = v / total
		}
	}
	return out
}

// foldCPU decodes a gzipped pprof CPU profile, as written by
// runtime/pprof.StartCPUProfile, and sums its CPU time per bucket.
func foldCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	var funcs []string
	for _, s := range p.samples {
		funcs = funcs[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				funcs = append(funcs, p.funcName[fid])
			}
		}
		out[fold(funcs)] += float64(s.value)
	}
	return out, nil
}

// allocSnapshot is the process's sampled allocation profile, keyed by
// stack, as runtime.MemProfile reports it.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

func takeAllocSnapshot() allocSnapshot {
	// The profile publishes allocations as of the last completed GC
	// cycle; two cycles flush everything allocated before this call.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, _ := runtime.MemProfile(nil, true)
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = r
	}
	return snap
}

// foldAllocs sums the bytes allocated between two snapshots per bucket.
// Sampled bytes are scaled back to estimated totals the way pprof
// does, since small objects are sampled less often than large ones.
func foldAllocs(before, after allocSnapshot, rate int) map[string]float64 {
	out := map[string]float64{}
	var funcs []string
	for key, r := range after {
		allocated := r.AllocBytes - before[key].AllocBytes
		objs := r.AllocObjects - before[key].AllocObjects
		if allocated <= 0 || objs <= 0 {
			continue
		}
		est := float64(allocated)
		if rate > 0 {
			avg := est / float64(objs)
			est /= 1 - math.Exp(-avg/float64(rate))
		}
		funcs = funcs[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[fold(funcs)] += est
	}
	return out
}

// profile is the part of a pprof profile the fold reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

// parseProfile decodes the fields of an uncompressed profile.proto
// message the fold needs.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	nameIdx := map[uint64]uint64{}
	err := walk(b, func(f field) error {
		switch f.num {
		case profSample:
			var s sample
			var vals []uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case sampleLocation:
					s.locs = g.uints(s.locs)
				case sampleValue:
					vals = g.uints(vals)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case locID:
					id = g.v
				case locLine:
					return walk(g.data, func(h field) error {
						if h.num == lineFunction {
							funcs = append(funcs, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profFunction:
			var id, name uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case funcID:
					id = g.v
				case funcName:
					name = g.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			nameIdx[id] = name
		case profStrings:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range nameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

// field is one decoded protocol-buffer field: v for varint and fixed
// wire types, data for length-delimited ones.
type field struct {
	num  uint64
	wire uint64
	v    uint64
	data []byte
}

// uints appends a repeated integer field, packed or not.
func (f field) uints(dst []uint64) []uint64 {
	if f.wire != 2 {
		return append(dst, f.v)
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protocol buffer")

// walk calls fn for every field of the message b.
func walk(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

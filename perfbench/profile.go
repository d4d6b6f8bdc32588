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

// layers are the hyperalloc packages reported as <layer>.cpu_share: the
// simulator's layers, the workload drivers, and the root API package
// ("hyperalloc"). Samples in other internal packages go to
// other.cpu_share; samples with no hyperalloc frame go to
// bench.cpu_share (the benchmark's own code), runtime.gc_share (GC
// workers) or runtime.other_share.
var layers = []string{
	"llfree", "buddy", "guest", "balloon", "virtiomem", "virtioqueue", "iommu",
	"ept", "hostmem", "vmm", "core", "ledger", "sim", "costmodel", "broker",
	"cluster", "migrate", "obs", "spec", "report", "trace", "metrics", "mem",
	"workload", "hyperalloc",
}

// shareKeys lists every layer-share metric; the shares sum to 1.
func shareKeys() []string {
	keys := make([]string, 0, len(layers)+4)
	for _, l := range layers {
		keys = append(keys, l+".cpu_share")
	}
	return append(keys, "other.cpu_share", "bench.cpu_share", "runtime.gc_share", "runtime.other_share")
}

// profBuf receives the CPU profile of a traced run.
var profBuf bytes.Buffer

func startProfile() error { return pprof.StartCPUProfile(&profBuf) }

func stopProfile() ([]byte, error) {
	pprof.StopCPUProfile()
	if profBuf.Len() == 0 {
		return nil, errors.New("empty CPU profile")
	}
	return profBuf.Bytes(), nil
}

// sample is one decoded profile sample: its call stack, innermost frame
// first (inlined frames expanded), how many profiling ticks landed on
// that stack, and their weight in CPU nanoseconds.
type sample struct {
	stack  []string
	count  int64
	weight int64
}

// bucketOf charges a sample to the innermost hyperalloc frame's package;
// runtime and standard-library frames go to their nearest hyperalloc
// caller. Stacks without one are GC work, the benchmark's own code, or
// other runtime work.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := hyperallocPkg(fn); ok {
			for _, l := range layers {
				if l == pkg {
					return l + ".cpu_share"
				}
			}
			return "other.cpu_share"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime.gc_share"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench.cpu_share"
		}
	}
	return "runtime.other_share"
}

// hyperallocPkg maps a function name to its hyperalloc package:
// "hyperalloc/internal/llfree.(*Tree).scan" → "llfree",
// "hyperalloc.(*System).NewVM" → "hyperalloc".
func hyperallocPkg(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "hyperalloc/internal/"); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return "", false
		}
		return rest[:end], true
	}
	if strings.HasPrefix(fn, "hyperalloc.") {
		return "hyperalloc", true
	}
	return "", false
}

// layerShares charges every sample to one bucket and returns each
// bucket's share of the total weight (summing to 1) and the number of
// profiling ticks.
func layerShares(samples []sample) (map[string]float64, int64) {
	shares := make(map[string]float64)
	var total, ticks int64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.weight)
		total += s.weight
		ticks += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, ticks
}

// parseProfile decodes a gzipped pprof profile (profile.proto) into
// samples. A CPU profile's sample values are (ticks, CPU nanoseconds).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []rawSample
	)
	err = pbFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2: // sample
			var rs rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					rs.locs = appendPacked(rs.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						rs.values = append(rs.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, rs)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := sample{count: rs.values[0], weight: rs.values[len(rs.values)-1]}
		for _, id := range rs.locs {
			for _, fn := range locs[id] {
				idx, ok := funcs[fn]
				if !ok || idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: bad function %d in location %d", fn, id)
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either as
// one unpacked value (v) or as a packed run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or (for length-delimited fields)
// its bytes. Fixed 32/64-bit fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("profile: truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b := msg[n : n+int(l)] // non-nil even when empty
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its size (0 if truncated).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

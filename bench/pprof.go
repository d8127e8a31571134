package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the CPU profiles runtime/pprof writes: gzipped
// protobuf, perftools.profiles.Profile. It decodes only what layer
// attribution needs — each sample's stack as function names, leaf
// first, and its CPU time — so the module keeps its empty go.mod.

// stackSample is one profile sample.
type stackSample struct {
	Funcs []string // innermost frame first, inlined frames expanded
	Nanos int64    // CPU time the sample stands for
}

var errProfile = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint value, or the bytes of
// a length-delimited one.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbNext decodes the field at the head of buf and returns the rest.
func pbNext(buf []byte) (pbField, []byte, error) {
	key, n := uvarint(buf)
	if n <= 0 {
		return pbField{}, nil, errProfile
	}
	buf = buf[n:]
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		v, n := uvarint(buf)
		if n <= 0 {
			return f, nil, errProfile
		}
		f.v, buf = v, buf[n:]
	case 1:
		if len(buf) < 8 {
			return f, nil, errProfile
		}
		buf = buf[8:]
	case 2:
		l, n := uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return f, nil, errProfile
		}
		f.b, buf = buf[n:n+int(l)], buf[n+int(l):]
	case 5:
		if len(buf) < 4 {
			return f, nil, errProfile
		}
		buf = buf[4:]
	default:
		return f, nil, errProfile
	}
	return f, buf, nil
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, b := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << (7 * uint(i))
		if b < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbEach calls fn for every field of a message.
func pbEach(msg []byte, fn func(pbField) error) error {
	for len(msg) > 0 {
		f, rest, err := pbNext(msg)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		msg = rest
	}
	return nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return dst, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// readProfile decodes a gzipped pprof CPU profile into its samples.
func readProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
		nTypes   int
		period   int64
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			err := pbEach(f.b, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbInts(g, s.locs)
				case 2:
					s.vals, err = pbInts(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line; the first is the innermost inlined frame
					return pbEach(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbEach(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		case 12:
			period = int64(f.v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var st stackSample
		// A CPU profile's values are (sample count, cpu nanoseconds).
		switch {
		case nTypes >= 2 && len(s.vals) >= 2:
			st.Nanos = int64(s.vals[1])
		case len(s.vals) >= 1:
			st.Nanos = int64(s.vals[0]) * period
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const modulePrefix = "github.com/agilla-go/agilla/"

// Buckets a sample can fall into besides a module package.
const (
	bucketBench        = "bench"
	bucketGC           = "go.gc"
	bucketRuntime      = "go.other"
	bucketUnattributed = "unattributed"
)

// layerOf attributes one sample: to the package of its innermost frame
// inside the module (so time in net, syscall or the allocator counts
// for the layer that called them); else to the harness; else, with no
// module frame at all, to the garbage collector or the rest of the Go
// runtime by the goroutine's entry point.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			rest = strings.TrimPrefix(rest, "internal/")
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	if len(funcs) == 0 {
		return bucketUnattributed
	}
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcDrain"),
			strings.HasPrefix(fn, "runtime.gcAssistAlloc"):
			return bucketGC
		}
	}
	if root := funcs[len(funcs)-1]; strings.HasPrefix(root, "runtime.") {
		return bucketRuntime
	}
	return bucketUnattributed
}

// cpuShares folds a profile into the share of CPU time per bucket.
func cpuShares(samples []stackSample) (shares map[string]float64, nanos map[string]int64) {
	shares, nanos = make(map[string]float64), make(map[string]int64)
	var total int64
	for _, s := range samples {
		nanos[layerOf(s.Funcs)] += s.Nanos
		total += s.Nanos
	}
	if total > 0 {
		for k, v := range nanos {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares, nanos
}

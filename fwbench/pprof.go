package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough of the wire format to attribute each CPU sample to
// the function that was running (self time). It keeps the benchmark free
// of module dependencies.

// profSample is one stack sample: frames leaf first (inlined callees
// before their callers), weighted by CPU nanoseconds.
type profSample struct {
	frames []string
	value  int64
}

// readProfile decodes a gzipped CPU profile into its samples.
func readProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames   = map[uint64]int64{}    // function -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return eachVarint(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// Weight by CPU time when the profile carries it, else by count.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("pprof: sample without the profile's value")
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				frames = append(frames, str(funcNames[f]))
			}
		}
		out = append(out, profSample{frames: frames, value: s.values[vi]})
	}
	return out, nil
}

// eachField walks the protobuf fields of msg. Varint and fixed-width
// values arrive in v, length-delimited ones in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one
// unpacked value, or a packed run.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcRoots are the runtime functions under which all garbage-collector
// work runs, in the background workers or as allocation assists.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.GC":             true,
}

// copyLeaves are the runtime's bulk copy and clear routines, which the
// compiler calls for large value copies such as walk records.
var copyLeaves = map[string]bool{
	"runtime.duffcopy": true,
	"runtime.memmove":  true,
	"runtime.duffzero": true,
}

// modulePrefix is the import-path prefix of the program's own packages.
const modulePrefix = "flashwalker/internal/"

// classify names the bucket a sample's self time belongs to: "gc" when it
// ran under the collector, "copy" for the bulk copy routines, the
// flashwalker/internal package of the running function otherwise, or ""
// for anything else.
func classify(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	if len(frames) == 0 {
		return ""
	}
	if copyLeaves[frames[0]] {
		return "copy"
	}
	pkg := funcPackage(frames[0])
	if !strings.HasPrefix(pkg, modulePrefix) {
		return ""
	}
	return strings.SplitN(pkg[len(modulePrefix):], "/", 2)[0]
}

// funcPackage returns the import path of a symbol name such as
// "flashwalker/internal/core.(*Engine).decideBatch".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// selfShares returns each bucket's share of the profile's total CPU time.
func selfShares(samples []profSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.value
		by[classify(s.frames)] += s.value
	}
	out := map[string]float64{}
	for k, v := range by {
		if k != "" {
			out[k] = ratio(float64(v), float64(total))
		}
	}
	return out
}

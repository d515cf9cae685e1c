package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU-profile stack with its sample count. Frames run from
// the leaf outwards; inlined calls appear as their own frames.
type sample struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes
// and returns its stacks. It reads only the fields attribution needs:
// Profile.sample (2), location (4), function (5), string_table (6);
// Sample.location_id (1), value (2); Location.id (1), line (4);
// Line.function_id (1); Function.id (1), name (2).
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, vals []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = walkFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		// value[0] is the sample count; value[1] its CPU nanoseconds.
		out = append(out, sample{frames: frames, count: int64(s.vals[0])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as one
// unpacked value (b == nil) or as a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// cpuModules are the packages whose wall-clock share is reported on its
// own; other repro packages are pooled in cpu.other_frac.
var cpuModules = []string{
	"sim", "core", "rados", "netsim", "blockmq", "iouring", "uifd", "qdma",
	"fpga", "crush", "lsvd", "legacyapi", "rbd", "metrics", "trace", "bench",
}

const modulePrefix = "repro/internal/"

// frameModule returns the repro module a frame belongs to, or "" for a
// frame outside the program (the Go runtime and standard library). The
// benchmark's own main package is the "bench" module.
func frameModule(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range cpuModules {
		if m == rest {
			return m
		}
	}
	return "other"
}

func hasFrame(frames []string, prefixes ...string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// attributeCPU charges each sample to the innermost program frame's module
// (cpu.<module>_frac); samples with no program frame are garbage collection
// or other runtime work. The cross-cutting shares overlap the module shares:
// a sample in channel handoff under a sim frame, in mallocgc, or growing a
// stack is counted there as well. It also returns the sample total.
func attributeCPU(samples []sample) (map[string]float64, int64) {
	out := map[string]float64{
		"cpu.other_frac": 0, "cpu.runtime_gc_frac": 0, "cpu.runtime_other_frac": 0,
		"cpu.chan_handoff_frac": 0, "cpu.malloc_frac": 0, "cpu.stack_growth_frac": 0,
	}
	for _, m := range cpuModules {
		out["cpu."+m+"_frac"] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.count
		c := float64(s.count)
		key := ""
		for _, f := range s.frames {
			if m := frameModule(f); m != "" {
				key = "cpu." + m + "_frac"
				break
			}
		}
		if key == "" {
			key = "cpu.runtime_other_frac"
			if hasFrame(s.frames, "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge") {
				key = "cpu.runtime_gc_frac"
			}
		}
		out[key] += c
		if hasFrame(s.frames, "runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready") &&
			hasFrame(s.frames, modulePrefix+"sim.") {
			out["cpu.chan_handoff_frac"] += c
		}
		if hasFrame(s.frames, "runtime.mallocgc") {
			out["cpu.malloc_frac"] += c
		}
		if hasFrame(s.frames, "runtime.newstack", "runtime.morestack", "runtime.copystack") {
			out["cpu.stack_growth_frac"] += c
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out, total
}

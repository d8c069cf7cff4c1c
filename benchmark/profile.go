package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file reduces runtime/pprof CPU profiles to per-layer host time. It
// decodes the gzipped profile protobuf with the standard library alone.

// layers are the per-layer attribution buckets, named after the repo's
// packages; go.runtime takes samples with no module frame.
var layers = []string{
	"workload", "isa", "emu", "mem", "ckpt", "cpu", "cpistack", "cache", "branch",
	"pf.bfetch", "pf.sms", "pf.stride", "pf.isb", "pf.stems",
	"sim", "obs", "runner", "store", "harness", "go.runtime",
}

const modulePrefix = "repro/internal/"

// pkgLayers maps repro/internal packages to layers. Packages not listed
// (stats, trace, and the shared prefetch queue) are not layers of their
// own: their samples go to the layer that called them.
var pkgLayers = map[string]string{
	"workload": "workload", "isa": "isa", "emu": "emu", "mem": "mem", "ckpt": "ckpt",
	"cpu": "cpu", "cache": "cache", "branch": "branch",
	"core": "pf.bfetch", "sms": "pf.sms", "isb": "pf.isb", "stems": "pf.stems",
	"sim": "sim", "obs": "obs", "runner": "runner", "store": "store", "harness": "harness",
}

type frame struct {
	fn   string // fully qualified function name
	file string
}

type sample struct {
	frames []frame // leaf first; inlined frames innermost first
	ns     int64
	labels map[string]string
}

// layerOf charges a sample to the first repro/internal frame, walking up
// from the leaf, that belongs to a layer. Runtime and standard-library
// work (map lookups, mallocgc, sha256, gob) is thereby charged to the
// module layer that called it.
func layerOf(frames []frame) string {
	for _, f := range frames {
		pkg, ok := strings.CutPrefix(pkgPath(f.fn), modulePrefix)
		if !ok {
			continue
		}
		base := path.Base(f.file)
		switch {
		case pkg == "cpu" && base == "cpistack.go":
			return "cpistack"
		case pkg == "prefetch" && base == "stride.go":
			return "pf.stride"
		}
		if l, ok := pkgLayers[pkg]; ok {
			return l
		}
	}
	return "go.runtime"
}

// pkgPath returns the import path part of a function name such as
// "repro/internal/cpu.(*Core).Cycle".
func pkgPath(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isGC(frames []frame) bool {
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "runtime.gc") || f.fn == "runtime.bgsweep" || f.fn == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

func isAlloc(frames []frame) bool {
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "runtime.mallocgc") {
			return true
		}
	}
	return false
}

// layerTime is CPU time attributed from one or more profiles.
type layerTime struct {
	total   int64
	byLayer map[string]int64
	byPhase map[string]map[string]int64 // phase label → layer → ns
	gc      int64
	alloc   int64
}

func newLayerTime() *layerTime {
	return &layerTime{byLayer: map[string]int64{}, byPhase: map[string]map[string]int64{}}
}

func (lt *layerTime) add(samples []sample) {
	for _, s := range samples {
		l := layerOf(s.frames)
		lt.total += s.ns
		lt.byLayer[l] += s.ns
		ph := s.labels["phase"]
		if lt.byPhase[ph] == nil {
			lt.byPhase[ph] = map[string]int64{}
		}
		lt.byPhase[ph][l] += s.ns
		if isGC(s.frames) {
			lt.gc += s.ns
		}
		if isAlloc(s.frames) {
			lt.alloc += s.ns
		}
	}
}

var errProto = errors.New("malformed profile protobuf")

// fields calls fn for each field of the protobuf message b. v holds varint
// and fixed-width values, data the payload of length-delimited fields.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into samples carrying their
// CPU nanoseconds.
func parseProfile(gz []byte) ([]sample, error) {
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
		labels     [][2]uint64
	}
	var (
		strs      []string
		types     []uint64 // sample_type: string index of each value's type
		rsamples  []rawSample
		locLines  = map[uint64][]uint64{}  // location id → function ids, innermost first
		funcNames = map[uint64][2]uint64{} // function id → (name, filename) string indices
	)
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		var err error
		switch num {
		case 1: // sample_type
			err = fields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case 2:
					s.vals, err = appendUints(s.vals, wire, v, data)
				case 3:
					var kv [2]uint64
					err = fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			rsamples = append(rsamples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
		case 5: // function
			var id uint64
			var nf [2]uint64
			err = fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
				return nil
			})
			funcNames[id] = nf
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rsamples))
	for _, rs := range rsamples {
		if cpu >= len(rs.vals) {
			return nil, fmt.Errorf("profile: %w", errProto)
		}
		s := sample{ns: int64(rs.vals[cpu])}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				nf := funcNames[fid]
				s.frames = append(s.frames, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		if len(rs.labels) > 0 {
			s.labels = make(map[string]string, len(rs.labels))
			for _, kv := range rs.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

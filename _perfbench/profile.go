package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profile is a CPU profile folded by layer: each sample's CPU time goes to
// the innermost frame that belongs to a repository package, so standard
// library code (sorting, maps, allocation) counts against the repository
// package that called it. Samples with no repository frame go to "runtime"
// (garbage collector, scheduler) or "other".
type profile struct {
	totalNS float64
	layerNS map[string]float64
}

func newProfile() *profile { return &profile{layerNS: map[string]float64{}} }

// layers are the attribution buckets, in report order.
var layers = []string{
	"sim", "simnet", "mpi", "driver", "mesh", "sfc", "placement", "cost",
	"harness", "telemetry", "colfile", "tql", "bench", "runtime", "other",
}

// record runs f under the CPU profiler and adds its folded profile to p.
func (p *profile) record(f func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	if err := p.fold(buf.Bytes()); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// layerOf maps a fully qualified Go function name to its layer, or "" for
// code outside the repository.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main" || pkg == "amrtools/perfbench":
		return "bench"
	case strings.HasPrefix(pkg, "amrtools/internal/"):
		l := strings.TrimPrefix(pkg, "amrtools/internal/")
		for _, known := range layers {
			if l == known {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "amrtools/"):
		return "other"
	}
	return ""
}

// fold decodes a gzipped profile.proto message, the format runtime/pprof
// writes, and adds its CPU nanoseconds to p by layer.
func (p *profile) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		nvalues int
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nvalues++
		case 2: // sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
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
			var id, name uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if nvalues < 2 {
		return errors.New("not a CPU profile")
	}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		ns := float64(s.vals[1]) // sample types: samples/count, cpu/nanoseconds
		p.totalNS += ns
		p.layerNS[sampleLayer(s.locs, locs, funcs, strs)] += ns
	}
	return nil
}

// sampleLayer returns the layer of a sample's innermost repository frame.
func sampleLayer(stack []uint64, locs map[uint64][]uint64, funcs map[uint64]uint64, strs []string) string {
	runtimeOnly := true
	for _, loc := range stack {
		for _, fid := range locs[loc] {
			idx := funcs[fid]
			if idx >= uint64(len(strs)) {
				continue
			}
			name := strs[idx]
			if l := layerOf(name); l != "" {
				return l
			}
			if !strings.HasPrefix(name, "runtime.") {
				runtimeOnly = false
			}
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "other"
}

// fields walks the top-level fields of a protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func fields(buf []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field in either packed or plain form.
func varints(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		b = b[n:]
	}
	return nil
}

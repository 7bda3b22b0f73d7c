package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes — a gzipped
// profile.proto — with a minimal protobuf wire reader, so go.mod stays
// free of dependencies. Only the fields self-time attribution needs are
// decoded: samples (location ids + values), locations (their innermost
// line's function), functions (name index) and the string table.

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("profile: truncated message")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited payload.
func (r *pbReader) next() (field int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(r.b)) {
			return 0, 0, nil, errTruncated
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return field, val, payload, err
}

// repeated appends a repeated integer field's value(s) to dst: the
// packed form arrives as a payload of varints, the unpacked form as one
// varint per field occurrence.
func repeated(dst []uint64, val uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, val), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first sample type: samples with this stack
	value int64    // last sample type: cpu nanoseconds
}

// cpuProfile is the decoded subset of a profile.proto.
type cpuProfile struct {
	samples []profSample
	// funcsOf maps a location id to its functions' names, innermost
	// (leaf) first: inlined frames share one location.
	funcsOf map[uint64][]string
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		samples  []profSample
		locFuncs = map[uint64][]uint64{} // location id → function ids
		funcName = map[uint64]uint64{}   // function id → string index
		strs     []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			m := pbReader{payload}
			for len(m.b) > 0 {
				f, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeated(s.locs, v, p); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeated(vals, v, p); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{payload}
			for len(m.b) > 0 {
				f, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{p}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbReader{payload}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	p := &cpuProfile{samples: samples, funcsOf: make(map[uint64][]string, len(locFuncs))}
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if idx := funcName[fn]; idx < uint64(len(strs)) {
				names = append(names, strs[idx])
			}
		}
		p.funcsOf[id] = names
	}
	return p, nil
}

// funcPackage returns the import path of a symbol name as the Go linker
// writes it: "repro/internal/sim.(*Env).loop" → "repro/internal/sim".
// Type arguments may hold their own slashes and dots, so they are cut
// first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayers maps a package under repro/internal/ to the layer its self
// time is reported under; the application substrates are one layer.
var repoLayers = map[string]string{
	"sim": "sim", "sched": "sched", "paging": "paging", "rdma": "rdma",
	"ethernet": "ethernet", "loadgen": "loadgen", "memnode": "memnode", "stats": "stats",
	"workload": "workload", "kvs": "workload", "sstable": "workload",
	"tpcc": "workload", "btree": "workload", "vecdb": "workload",
}

// layerOf maps a package to the layer its self time is reported under.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if layer, ok := repoLayers[rest]; ok {
			return layer
		}
		return "other"
	}
	// Goroutine switches, channels, the allocator, GC and memmove: the Go
	// runtime and the packages it is split across.
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/abi" ||
		pkg == "internal/cpu" || pkg == "internal/bytealg" ||
		pkg == "sync" || pkg == "sync/atomic" {
		return "runtime"
	}
	return "other"
}

// isGCFrame reports whether a runtime function belongs to the garbage
// collector (mark workers, assists, sweep, scavenge).
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.sweepone")
}

// selfTime is the CPU time of one or more profiles split by the layer of
// each sample's leaf function, in nanoseconds.
type selfTime struct {
	byLayer map[string]float64
	gc      float64 // samples with a garbage-collector frame anywhere on the stack
	total   float64
	samples int64
}

func (t *selfTime) add(p *cpuProfile) {
	if t.byLayer == nil {
		t.byLayer = make(map[string]float64, len(profileLayers))
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || s.value <= 0 {
			continue
		}
		v := float64(s.value)
		t.total += v
		t.samples += s.count
		layer := "other"
		if leaf := p.funcsOf[s.locs[0]]; len(leaf) > 0 {
			layer = layerOf(funcPackage(leaf[0]))
		}
		t.byLayer[layer] += v
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.funcsOf[loc] {
				if isGCFrame(fn) {
					t.gc += v
					break stack
				}
			}
		}
	}
}

// share is the layer's part of the CPU time. With no samples it is zero
// for every layer except "other", which is 1, so the shares always sum
// to 1.
func (t *selfTime) share(layer string) float64 {
	if t.total == 0 {
		if layer == "other" {
			return 1
		}
		return 0
	}
	return t.byLayer[layer] / t.total
}

func (t *selfTime) gcShare() float64 { return ratio(t.gc, t.total) }

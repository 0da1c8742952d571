package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime"
	"strings"
)

// Layer buckets. Every profile sample lands in exactly one of them, so
// the buckets of one profile sum to its total.
var layers = []string{
	"sim", "netsim", "resource", "dfs", "mr", "core", "policy", "arrival",
	"fleet", "serve", "telemetry", "trace", "other", "bench", "gc",
}

// mrFiles splits the mr bucket by source file; "rest" takes the files
// not named.
var mrFiles = []string{"tasks", "tracker", "fluid", "jobtracker", "cluster", "rest"}

// frame is one (possibly inlined) function in a sampled stack.
type frame struct{ fn, file string }

// stackSample is one profile sample: its stack, innermost frame first,
// and its weight (CPU nanoseconds, or allocated objects).
type stackSample struct {
	stack  []frame
	weight int64
}

// attribution is a profile folded into layer buckets.
type attribution struct {
	layer map[string]int64
	mr    map[string]int64
	total int64
}

// attribute charges each sample to the innermost frame that belongs to
// this module: smapreduce/internal/<pkg> goes to its layer (par with
// fleet, serve/ledger with serve, unlisted packages to "other"), the
// benchmark's own main package to "bench". Runtime and standard-library
// frames are thereby charged to the layer that called them; a sample
// with no module frame at all (GC workers, the scheduler, the network
// poller) goes to "gc". mr samples are split further by source file.
func attribute(samples []stackSample) attribution {
	a := attribution{layer: map[string]int64{}, mr: map[string]int64{}}
	for _, s := range samples {
		layer, file := "gc", ""
		for _, f := range s.stack {
			if l, ok := layerOf(f.fn); ok {
				layer, file = l, f.file
				break
			}
		}
		a.layer[layer] += s.weight
		a.total += s.weight
		if layer == "mr" {
			a.mr[mrFileOf(file)] += s.weight
		}
	}
	return a
}

// layerOf maps a fully qualified function name to its layer bucket.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "smapreduce":
		return "other", true
	case "smapreduce/perfbench": // this package, as compiled into its tests
		return "bench", true
	}
	rest, ok := strings.CutPrefix(pkg, "smapreduce/internal/")
	if !ok {
		return "", false
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "par":
		return "fleet", true
	case "sim", "netsim", "resource", "dfs", "mr", "core", "policy", "arrival",
		"fleet", "serve", "telemetry", "trace":
		return top, true
	}
	return "other", true
}

func mrFileOf(file string) string {
	base := strings.TrimSuffix(path.Base(file), ".go")
	for _, f := range mrFiles[:len(mrFiles)-1] {
		if base == f {
			return f
		}
	}
	return "rest"
}

// parseCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof and returns its samples weighted by CPU nanoseconds.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(p.samples))
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, errors.New("cpu profile: short sample")
		}
		var stack []frame
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				f := p.functions[fid]
				stack = append(stack, frame{fn: p.str(f.name), file: p.str(f.file)})
			}
		}
		out = append(out, stackSample{stack: stack, weight: s.values[col]})
	}
	return out, nil
}

// allocSamples snapshots the runtime's allocation profile, keyed by
// stack, as cumulative allocated-object counts.
func allocSamples() map[[32]uintptr]int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// allocDelta returns the allocations made between two snapshots as
// symbolised samples.
func allocDelta(before, after map[[32]uintptr]int64) []stackSample {
	var out []stackSample
	for key, n := range after {
		d := n - before[key]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range key {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var stack []frame
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			stack = append(stack, frame{fn: f.Function, file: f.File})
			if !more {
				break
			}
		}
		out = append(out, stackSample{stack: stack, weight: d})
	}
	return out
}

// ---- minimal profile.proto decoder ----

type protoFunction struct{ name, file int64 }

type protoSample struct {
	locations []uint64
	values    []int64
}

type protoProfile struct {
	sampleTypes []string
	samples     []protoSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]protoFunction
	strings     []string
}

func (p *protoProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the fields of profile.proto this benchmark needs:
// sample types, samples, locations with their inlined lines, functions
// and the string table.
func decodeProfile(b []byte) (*protoProfile, error) {
	p := &protoProfile{locations: map[uint64][]uint64{}, functions: map[uint64]protoFunction{}}
	var typeIdx []int64
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s protoSample
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return eachVarint(w, v, sub, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, _ int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f protoFunction
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

// eachVarint yields a repeated varint field in packed or unpacked form.
func eachVarint(wire int, v uint64, sub []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks one protobuf message, passing varint values in v and
// length-delimited payloads in sub.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

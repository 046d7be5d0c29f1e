package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: its call stack as function
// names, leaf first, and how many times it was hit. It is what
// `go tool pprof -traces` prints one block for.
type stackSample struct {
	funcs []string
	count int64
}

// layers are the internal packages host time is charged to. harness,
// microbench and kdsm are drivers and presets without metrics of their
// own; the translator is off every run path.
var layers = []string{"sim", "netsim", "mpi", "dsm", "hlrc", "core", "apps", "obs", "stats", "fleet"}

const layerPrefix = "parade/internal/"

// Shares outside every layer.
const (
	shareGC    = "runtime.gc_share"
	shareSched = "runtime.sched_share"
	shareBench = "bench.host_share"
)

// layerOf charges a stack to the leaf-most layer frame on it, so malloc,
// GC assist and channel wake-ups count against the layer that caused
// them. Stacks that never entered a layer are the collector's
// background work, the scheduler, or the benchmark itself (with
// net/http and encoding/json under it).
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, layerPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layers {
			if pkg == l {
				return l + ".host_share"
			}
		}
	}
	allRuntime := true
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.gcMark") {
			return shareGC
		}
		if !strings.HasPrefix(fn, "runtime.") {
			allRuntime = false
		}
	}
	if allRuntime {
		return shareSched
	}
	return shareBench
}

// hostShares splits the samples' hits across the share metrics; the
// shares sum to one. With no samples every share is zero.
func hostShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{shareGC: 0, shareSched: 0, shareBench: 0}
	for _, l := range layers {
		shares[l+".host_share"] = 0
	}
	var total int64
	for _, s := range samples {
		shares[layerOf(s.funcs)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares
}

// decodeProfile reads a gzipped pprof protobuf (what runtime/pprof
// writes) into stack samples. Only the fields the attribution needs are
// decoded: samples, locations with their inlined lines, functions and
// the string table.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = append(s.locs, unpack(v, b)...)
				case 2: // value: the first is the hit count
					if vals := unpack(v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. A varint field
// arrives in v, a length-delimited one in b; fixed-width fields are
// skipped (the profile format has none the decoder needs).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// unpack returns a repeated varint field's values: the packed bytes in
// b, or the single unpacked value v.
func unpack(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var vals []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		vals = append(vals, x)
		b = b[n:]
	}
	return vals
}

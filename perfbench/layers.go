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

// internalPrefix marks the repository's own packages; the element after it
// names the layer (its module).
const internalPrefix = "dragonfly/internal/"

// constructors are the functions whose samples are charged to
// "<module>.build" instead of "<module>": building the fabric's dense index
// and the routing tables is per-cell set-up, not simulation. Closures they
// start (name + ".funcN") count as them.
var constructors = []string{
	internalPrefix + "network.New",
	internalPrefix + "routing.NewChooser",
	internalPrefix + "routing.NewChooserOpts",
}

// reportedLayers maps the layers the traced run reports to their metrics.
var reportedLayers = []struct{ layer, metric string }{
	{"des", "des.cpu_share"},
	{"network", "network.cpu_share"},
	{"routing", "routing.cpu_share"},
	{"network.build", "network.build_cpu_share"},
	{"routing.build", "routing.build_cpu_share"},
	{"farm", "farm.cpu_share"},
	{"workload", "workload.cpu_share"},
	{"runtime.gc", "runtime.gc_cpu_share"},
}

// layerOf charges one sample, given its stack leaf first, to a layer:
//   - the innermost constructor frame makes it "<module>.build";
//   - else the innermost dragonfly/internal/<module> frame makes it
//     "<module>", so standard-library callees (encoding/json, the
//     allocator) count for the layer that called them;
//   - else a frame of the benchmark itself or its profiler makes it "bench";
//   - else, with no frame of the program at all, it is "runtime.gc"
//     (background mark workers, sweeping, scavenging).
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, c := range constructors {
			if fn == c || strings.HasPrefix(fn, c+".") {
				return moduleOf(c) + ".build"
			}
		}
	}
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "runtime/pprof.") {
			return "bench"
		}
	}
	return "runtime.gc"
}

// moduleOf returns the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// layerProfile accumulates CPU samples per layer over several profiles.
type layerProfile struct {
	samples map[string]int64
	total   int64
}

// add decodes one runtime/pprof CPU profile and charges its samples.
func (lp *layerProfile) add(data []byte) error {
	stacks, counts, err := decodeProfile(data)
	if err != nil {
		return err
	}
	if lp.samples == nil {
		lp.samples = map[string]int64{}
	}
	for i, st := range stacks {
		lp.samples[layerOf(st)] += counts[i]
		lp.total += counts[i]
	}
	return nil
}

func (lp *layerProfile) share(layer string) float64 {
	if lp.total == 0 {
		return 0
	}
	return float64(lp.samples[layer]) / float64(lp.total)
}

// otherShare is what no reported layer got: core, topology, trace,
// placement, metrics and the benchmark's own code.
func (lp *layerProfile) otherShare() float64 {
	rest := 1.0
	for _, l := range reportedLayers {
		rest -= lp.share(l.layer)
	}
	if lp.total == 0 {
		return 0
	}
	return rest
}

// decodeProfile reads a gzipped profile.proto as runtime/pprof writes it and
// returns each sample's stack of function names, leaf first (inlined frames
// expanded innermost first), with its sample count. Only the fields needed
// for that are read.
func decodeProfile(data []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Profile.sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, b)
				case 2:
					s.values, err = appendUints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Location.line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case num == 5 && wire == 2: // Profile.function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && num == 1 {
					id = v
				} else if wire == 0 && num == 2 {
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case num == 6 && wire == 2: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		counts = append(counts, int64(s.values[0]))
	}
	return stacks, counts, nil
}

// eachField walks the fields of one protobuf message, handing each to fn
// with its number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProfile, wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("malformed profile")

// appendUints appends a repeated uint64 field given either unpacked (one
// varint) or packed (length-delimited run of varints); runtime/pprof uses
// both, depending on the length.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

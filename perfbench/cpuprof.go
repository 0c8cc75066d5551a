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

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the flat CPU share of each bucket in
// percent, plus the sample count under "samples".
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return cpuShares(p.buf.Bytes())
}

// cpuBuckets are the buckets the flat CPU time is split into, keyed by the
// package path of the sampled leaf function. GC is decided by the whole
// stack instead (see isGC).
var cpuBuckets = map[string]string{
	"scshare/internal/sparse": "sparse",
	"scshare/internal/markov": "markov",
	"scshare/internal/approx": "approx",
	"scshare/internal/market": "market",
	"scshare/internal/serve":  "serve_net",
	"net":                     "serve_net",
	"net/http":                "serve_net",
	"net/textproto":           "serve_net",
	"internal/poll":           "serve_net",
	"syscall":                 "serve_net",
	"encoding/json":           "serve_net",
	"bufio":                   "serve_net",
}

// cpuShares decodes a gzipped pprof CPU profile and splits its samples
// into cpuBuckets plus "gc"; every share is a percentage of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		frames := prof.frames(s.locs)
		switch {
		case isGC(frames):
			counts["gc"] += n
		case len(frames) > 0:
			if b, ok := cpuBuckets[pkgOf(frames[0])]; ok {
				counts[b] += n
			}
		}
	}
	out := map[string]float64{"samples": float64(total)}
	for _, b := range []string{"sparse", "markov", "approx", "market", "serve_net", "gc"} {
		if total > 0 {
			out[b] = 100 * float64(counts[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// isGC reports whether a stack (leaf first) is garbage-collector work:
// background mark workers, mark assists, or sweeping and scavenging.
func isGC(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a fully qualified function name such
// as "scshare/internal/sparse.(*CSR).MulVecTTo".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of a pprof profile the CPU split needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// frames maps a sample's location ids (leaf first) to function names,
// inlined frames included, innermost first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if si, ok := p.functions[fid]; ok && si >= 0 && int(si) < len(p.strings) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

// parseProfile decodes the fields of the pprof protobuf message (see
// github.com/google/pprof/proto/profile.proto) that the CPU split reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// walkFields calls fn for every field of a protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
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
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that may be packed
// (wire type 2) or not (one value per field occurrence).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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

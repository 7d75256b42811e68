package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// meter accumulates host costs over the simulations of one round: wall
// time, bytes allocated, and the largest live heap the collector marked.
// Set-up, input generation and the benchmark's own checks run outside it.
// A traced meter also profiles each simulation and counts its GC work.
type meter struct {
	wall  time.Duration
	alloc uint64
	heap  *heapWatch

	traced   bool
	prof     bytes.Buffer
	modules  map[string]float64 // CPU seconds by module
	gcCycles uint32
	gcPause  time.Duration
	err      error
}

func newMeter(traced bool) *meter {
	return &meter{heap: startHeapWatch(), traced: traced, modules: map[string]float64{}}
}

// run times fn, a whole simulation, and adds its costs to the meter.
func (m *meter) run(fn func()) {
	var c0 uint32
	var p0 time.Duration
	if m.traced {
		c0, p0 = gcStats()
		m.prof.Reset()
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			m.err = err
		}
	}
	a0 := allocBytes()
	t0 := time.Now()
	fn()
	m.wall += time.Since(t0)
	m.alloc += allocBytes() - a0
	m.heap.sample()
	if m.traced {
		pprof.StopCPUProfile()
		c1, p1 := gcStats()
		m.gcCycles += c1 - c0
		m.gcPause += p1 - p0
		if err := bucketProfile(&m.prof, m.modules); err != nil && m.err == nil {
			m.err = err
		}
	}
}

// close stops the heap watch and returns the largest live heap it saw.
func (m *meter) close() uint64 { return m.heap.stop() }

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

// heapWatch records the live heap after every GC cycle while it runs. A
// finalizer on a sentinel fires once per cycle and re-arms itself, so the
// watch costs one metrics read per cycle and starts no goroutine of its own.
type heapWatch struct {
	mu   sync.Mutex
	live []metrics.Sample
	max  uint64
	done bool
}

type sentinel struct{ _ *int }

func startHeapWatch() *heapWatch {
	h := &heapWatch{live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		h.sample()
		h.mu.Lock()
		done := h.done
		h.mu.Unlock()
		if !done {
			h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.live)
	if v := h.live[0].Value.Uint64(); v > h.max {
		h.max = v
	}
}

func (h *heapWatch) stop() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done = true
	return h.max
}

// gcStats reads the collector's cumulative cycle count and pause time.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bucketProfile adds each sample of a CPU profile to the bucket of its
// innermost repro/internal/<pkg> frame ("runtime" when the stack has none:
// collector workers and the scheduler).
func bucketProfile(r io.Reader, into map[string]float64) error {
	prof, err := decodeProfile(r)
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	for _, s := range prof.samples {
		bucket := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				if pkg, ok := internalPkg(fn); ok {
					bucket = pkg
					break frames
				}
			}
		}
		into[bucket] += float64(s.nanos) / 1e9
	}
	return nil
}

// internalPkg maps "repro/internal/mpi.(*Comm).Barrier" to "mpi".
func internalPkg(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// The CPU profile is a gzipped profile.proto message. Only the fields the
// bucketing needs are decoded: samples (location ids, CPU nanoseconds),
// locations (function ids, innermost inlined frame first), functions (name
// string index) and the string table.
type profSample struct {
	locs  []uint64
	nanos int64
}

type decodedProfile struct {
	samples  []profSample
	locFuncs map[uint64][]string
}

func decodeProfile(r io.Reader) (*decodedProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples   []profSample
		strs      []string
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var vals []int64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("sample without CPU time")
			}
			s.nanos = vals[1]
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &decodedProfile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		out.locFuncs[loc] = names
	}
	return out, nil
}

// walkFields calls fn for each top-level field of a protobuf message: v is
// the value of a varint field, b the payload of a length-delimited one.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated bytes field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (b == nil) or packed into a length-delimited payload.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint is binary.Uvarint with every malformed input reported as n == 0.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}

// Package layers charges the samples of a Go CPU profile to reqlens
// layers, with the standard library alone.
//
// Each sample goes to the innermost frame of a reqlens/internal/<pkg>
// function on its stack, so runtime frames (allocation, channel
// operations, the goroutine scheduler) count with their nearest reqlens
// caller. The simulator is split in two: "sim.switch" holds Proc
// yield/activate/Spawn and everything under them — the goroutine
// hand-off that resumes one simulated thread at a time — and "sim.loop"
// holds the rest of package sim (the event heap and loop). Stacks with
// no reqlens/internal frame are charged to "bench" when a frame of the
// benchmark (package main, or reqlens/reqbench in its tests) is on
// them, to "runtime" when they are the garbage
// collector's background work, and otherwise to "sim.switch": they are
// goroutine switches whose user stack the profiler cannot see past.
package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Sample is one profile sample: its stack, innermost frame first, and
// the CPU time it stands for.
type Sample struct {
	Stack []string
	CPU   time.Duration
}

// Parse reads a pprof CPU profile (gzip-compressed or raw protobuf).
func Parse(r io.Reader) ([]Sample, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("read profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("read profile: %w", err)
		}
	}
	return decode(raw)
}

// Layer returns the layer a stack (innermost frame first) is charged to.
func Layer(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "reqlens/internal/"); ok {
			pkg, sym, _ := strings.Cut(rest, ".")
			if pkg == "sim" && isSwitch(sym) {
				return "sim.switch"
			}
			if pkg == "sim" {
				return "sim.loop"
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "reqlens/reqbench.") {
			bench = true
		}
	}
	switch {
	case bench:
		return "bench"
	case isGC(stack):
		return "runtime"
	}
	return "sim.switch"
}

// isSwitch reports whether a package-sim symbol is part of the
// goroutine hand-off between the event loop and a simulated thread.
func isSwitch(sym string) bool {
	for _, p := range []string{"(*Proc).yield", "(*Proc).activate", "(*Env).Spawn"} {
		if strings.HasPrefix(sym, p) {
			return true
		}
	}
	return false
}

// isGC reports whether a stack with no reqlens frame is the garbage
// collector's background work.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.forEachP"):
			return true
		}
	}
	return false
}

// Charge sums the samples' CPU time per layer.
func Charge(samples []Sample) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range samples {
		out[Layer(s.Stack)] += s.CPU
	}
	return out
}

// Row is one layer's line of a table.
type Row struct {
	Layer string
	CPU   time.Duration
	Share float64 // of the profile's total
}

// Table returns the layers of a charge, largest first.
func Table(charge map[string]time.Duration) []Row {
	var total time.Duration
	for _, d := range charge {
		total += d
	}
	rows := make([]Row, 0, len(charge))
	for l, d := range charge {
		r := Row{Layer: l, CPU: d}
		if total > 0 {
			r.Share = float64(d) / float64(total)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CPU != rows[j].CPU {
			return rows[i].CPU > rows[j].CPU
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// The decoder below reads the subset of profile.proto a CPU profile
// needs: sample types, samples, locations with their lines, functions
// and the string table.

type location struct{ funcs []uint64 } // function ids, innermost first

type sampleRec struct {
	locs   []uint64
	values []int64
}

func decode(b []byte) ([]Sample, error) {
	var (
		types   [][2]int64 // (type, unit) string indexes
		samples []sampleRec
		locs    = map[uint64]location{}
		funcs   = map[uint64]int64{} // function id -> name string index
		strs    []string
	)
	err := fields(b, func(num int, wire int, v uint64, buf []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(buf, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sampleRec
			err := fields(buf, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return repeated(w, v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var l location
			err := fields(buf, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(buf, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(buf))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("decode profile: no cpu/nanoseconds sample type")
	}
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("decode profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s.locs {
			for _, f := range locs[id].funcs {
				stack = append(stack, str(funcs[f]))
			}
		}
		out = append(out, Sample{Stack: stack, CPU: time.Duration(s.values[vi])})
	}
	return out, nil
}

// fields walks the protobuf fields of b, calling fn with each field's
// number, wire type, and either its varint/fixed value or its
// length-delimited payload.
func fields(b []byte, fn func(num, wire int, v uint64, buf []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var buf []byte
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
			buf = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, buf); err != nil {
			return err
		}
	}
	return nil
}

// repeated feeds a repeated varint field, packed or not, to add.
func repeated(wire int, v uint64, buf []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(buf) > 0 {
		x, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		buf = buf[n:]
	}
	return nil
}

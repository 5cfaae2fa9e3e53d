package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call the benchmark made into the program. Spans of
// one measured window share Window; set-up spans carry Window -1.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Window int    `json:"window"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the tracer started
	End    int64  `json:"end_ns"`
}

// Dur is the span's host duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory. A nil *Tracer records nothing, so the
// untraced run makes the same calls in the same order as the traced one
// and pays one nil check per span.
type Tracer struct {
	t0     time.Time
	spans  []Span
	window int
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), window: -1} }

// SetWindow tags the spans begun from now on with window id w.
func (t *Tracer) SetWindow(w int) {
	if t != nil {
		t.window = w
	}
}

// Begin opens a span named name under parent (-1 for none) and returns
// its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Parent: parent, Window: t.window, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// Durations returns the host durations of every span named name, in
// order.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// WriteJSONL writes the spans, one JSON object a line, to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

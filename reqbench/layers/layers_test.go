package layers

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend1", "reqlens/internal/sim.(*Proc).yield", "reqlens/internal/sim.(*Proc).Sleep"}, "sim.switch"},
		{[]string{"runtime.gopark", "reqlens/internal/sim.(*Proc).activate", "reqlens/internal/sim.(*Env).Step"}, "sim.switch"},
		{[]string{"reqlens/internal/sim.(*Env).Spawn.func1.1"}, "sim.switch"},
		{[]string{"container/heap.Pop", "reqlens/internal/sim.(*Env).Step", "reqlens/internal/sim.(*Env).RunUntil"}, "sim.loop"},
		{[]string{"runtime.mallocgc", "reqlens/internal/ebpf.(*HashMap).Update", "reqlens/internal/kernel.(*Tracer).runLinks"}, "ebpf"},
		{[]string{"reqlens/internal/kernel.(*scheduler).compute", "reqlens/internal/sim.(*Env).Step"}, "kernel"},
		{[]string{"runtime.memmove", "main.(*Run).window"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim.switch"},
	}
	for _, c := range cases {
		if got := Layer(c.stack); got != c.want {
			t.Errorf("Layer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestParseRealProfile profiles a busy loop and checks the decoder
// finds the loop's function and a plausible CPU total.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	found := false
	for _, s := range samples {
		total += s.CPU
		for _, fn := range s.Stack {
			if fn == "reqlens/reqbench/layers.spin" {
				found = true
			}
		}
	}
	if !found || total < 100*time.Millisecond || total > time.Second {
		t.Errorf("profile of a 300ms spin: spin frame found %v, total CPU %v", found, total)
	}
	if _, err := Parse(bytes.NewReader([]byte{0x0a, 0xff})); err == nil {
		t.Error("Parse accepted a truncated profile")
	}
}

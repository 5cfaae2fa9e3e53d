package main

import (
	"sort"
	"time"
)

// Host speed on a shared machine drifts: on the 2-vCPU VM the reference
// figures come from, a loop with nothing of reqlens in it ran 15% faster
// or slower from one 5-second slice to the next, with under 1% steal
// reported, and one process's windows drifted the same way. The
// benchmark therefore runs a fixed calibration loop after every window
// and after every step of a set-up, and reports each host time scaled
// to the speed at which that loop takes calibRef. In one silo-observers
// process the medians of 40-window slices varied by 9.0% (coefficient
// of variation) raw and by 1.4% scaled.
//
// The loop does what dominates the simulator's host time — goroutine
// hand-offs over unbuffered channels — plus a map update per hand-off,
// and allocates nothing, so it neither triggers the garbage collector
// nor depends on the size of the program's heap.

// calibIters is the number of hand-offs in one calibration, about 3.5 ms.
const calibIters = 5000

// calibRef is the calibration time that defines reference speed: the
// median calibration on the reference machine (README.md). Scaled
// times read as host times on that machine at that speed.
const calibRef = 3500 * time.Microsecond

// calibSpan is how many calibrations around a window (that many on
// each side) its scale is the median of: about 2.5 s of host time.
const calibSpan = 10

// Calibrator runs the calibration loop against a helper goroutine it
// owns until Close.
type Calibrator struct {
	to, from chan int
	m        map[int]int
}

// NewCalibrator starts the helper goroutine.
func NewCalibrator() *Calibrator {
	c := &Calibrator{to: make(chan int), from: make(chan int), m: make(map[int]int, 1024)}
	for i := 0; i < 1024; i++ {
		c.m[i] = 0
	}
	go func() {
		for v := range c.to {
			c.from <- v
		}
		close(c.from)
	}()
	return c
}

// Run times one calibration.
func (c *Calibrator) Run() time.Duration {
	t0 := time.Now()
	for i := 0; i < calibIters; i++ {
		c.to <- i
		c.m[(<-c.from)&1023]++
	}
	return time.Since(t0)
}

// RunN times n calibrations.
func (c *Calibrator) RunN(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.Run()
	}
	return out
}

// Close stops the helper goroutine and waits for it to exit.
func (c *Calibrator) Close() {
	close(c.to)
	for range c.from {
	}
}

// scaled returns d scaled to reference speed, given the calibration
// time measured around it.
func scaled(d, calib time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibRef) / float64(calib))
}

// localMedians returns, for each calibration, the median of those
// within calibSpan of it: the scale of the window it followed.
func localMedians(calibs []time.Duration) []time.Duration {
	out := make([]time.Duration, len(calibs))
	for i := range calibs {
		lo, hi := max(0, i-calibSpan), min(len(calibs), i+calibSpan+1)
		out[i] = medianDuration(calibs[lo:hi])
	}
	return out
}

// medianDuration is the median of ds (the upper one of an even count).
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

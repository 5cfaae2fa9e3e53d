package main

import (
	"testing"
	"time"
)

func TestCalibrationAllocatesNothing(t *testing.T) {
	c := NewCalibrator()
	defer c.Close()
	if n := testing.AllocsPerRun(3, func() { c.Run() }); n != 0 {
		t.Errorf("calibration allocates %v times a run; it must not touch the heap", n)
	}
}

func TestLocalMediansFollowDrift(t *testing.T) {
	ms := time.Millisecond
	var calibs []time.Duration
	for i := 0; i < 30; i++ {
		calibs = append(calibs, 4*ms)
	}
	for i := 0; i < 30; i++ {
		calibs = append(calibs, 5*ms)
	}
	calibs[5] = 40 * ms // one calibration stalled by a GC cycle
	m := localMedians(calibs)
	if m[5] != 4*ms || m[0] != 4*ms || m[59] != 5*ms {
		t.Errorf("local medians %v %v %v, want 4ms 4ms 5ms", m[0], m[5], m[59])
	}
	if got := scaled(500*ms, calibRef); got != 500*ms {
		t.Errorf("500ms at reference speed scales to %v, want 500ms", got)
	}
	if got := scaled(500*ms, 2*calibRef); got != 250*ms {
		t.Errorf("500ms at half the reference speed scales to %v, want 250ms", got)
	}
}

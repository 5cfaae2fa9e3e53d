package main

import (
	"testing"
	"time"
)

// TestRunLengthFitsTheSeconds checks the sizing of a default run: at
// the reference figures its set-ups and rounds take at most the given
// seconds, and it measures enough windows for window_ms_tail to have at
// least ten beyond it.
func TestRunLengthFitsTheSeconds(t *testing.T) {
	const seconds = 30
	for _, wl := range Workloads {
		rounds := wl.Rounds(seconds)
		steps := 1 + int((wl.Warmup+chunk-1)/chunk)
		host := time.Duration(wl.Setups)*(wl.SetupHost+time.Duration(steps)*calibRef) +
			time.Duration(rounds)*(wl.RoundHost+time.Duration(wl.WindowsPerRound())*calibRef)
		if host > seconds*time.Second {
			t.Errorf("%s: %d rounds take %v at reference speed, more than %ds", wl.Name, rounds, host, seconds)
		}
		if n := rounds * wl.WindowsPerRound(); float64(n)*(1-tailQuantile) < 10 {
			t.Errorf("%s: %d windows leave fewer than ten beyond the p%.0f", wl.Name, n, 100*tailQuantile)
		}
	}
}

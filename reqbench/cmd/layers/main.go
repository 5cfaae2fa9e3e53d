// Command layers prints the per-layer CPU table of a traced benchmark
// run's CPU profile.
//
//	go run ./cmd/layers ../.bench_build/trace/cache-steady-seed1.cpu.pprof
//
// Samples are charged as package reqbench/layers describes: to the
// innermost reqlens/internal/<pkg> frame, with the simulator split into
// sim.switch (goroutine hand-off) and sim.loop.
package main

import (
	"fmt"
	"os"

	"reqlens/reqbench/layers"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: layers <cpu.pprof>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	samples, err := layers.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Printf("%-12s %10s %7s\n", "layer", "cpu_s", "share")
	for _, r := range layers.Table(layers.Charge(samples)) {
		fmt.Printf("%-12s %10.3f %6.1f%%\n", r.Layer, r.CPU.Seconds(), 100*r.Share)
	}
}

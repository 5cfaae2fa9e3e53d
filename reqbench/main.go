// Command reqbench is the reqlens benchmark. One invocation measures one
// workload for one seed in one process and prints, as its last line, a
// JSON object with the operations attempted and failed and the metrics:
// the end-to-end metrics untraced (--trace 0), the per-layer metrics
// from a traced run (--trace 1). One operation is one measurement
// window; a window fails when any check in check.go fails for it.
//
//	go build -o reqbench . && ./reqbench --workload cache-steady --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"reqlens/reqbench/layers"
)

// gomaxprocs is fixed: the simulator resumes one simulated thread at a
// time, so a second processor only adds cross-processor wake-ups.
const gomaxprocs = 1

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the last line a run prints.
type Output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cache-steady, cache-overload or silo-observers")
	seed := fs.Int64("seed", 1, "simulation seed")
	seconds := fs.Float64("seconds", 30, "run length: the set-ups and rounds that take this many host seconds at the reference figures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", "", "directory for the traced run's spans and CPU profile (default $CARGO_TARGET_DIR/trace, or .bench_build/trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(gomaxprocs)
	// A traced run measures the workload twice, so each pass gets half
	// the run.
	rounds := wl.Rounds(*seconds / float64(1+*trace))
	fmt.Fprintf(stderr, "reqbench: workload=%s seed=%d setups=%d rounds=%d windows=%d trace=%d GOMAXPROCS=%d %s\n",
		wl.Name, *seed, wl.Setups, rounds, rounds*wl.WindowsPerRound(), *trace, runtime.GOMAXPROCS(0), runtime.Version())

	cal := NewCalibrator()
	defer cal.Close()
	r := &Run{W: wl, Seed: *seed, Cal: cal}
	r.SetUp()
	r.Measure(rounds)
	r.Close()
	if *trace == 1 {
		dir := *outDir
		if dir == "" {
			dir = filepath.Join(buildDir(), "trace")
		}
		return traced(r, cal, dir, stdout, stderr)
	}
	failed := report(r, stderr)
	out := Output{Correct: true, Attempted: len(r.Windows), Failed: failed, Metrics: endToEnd(r)}
	return printOutput(stdout, out)
}

// buildDir is where build outputs and traces go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func printOutput(w io.Writer, out Output) error {
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report checks every window, prints each check's worst value against
// its limit (and, when calibrated, the run's median calibration and its
// unscaled wall_s) to stderr, and returns the number of failed windows.
func report(r *Run, stderr io.Writer) int {
	type worst struct {
		res      Result
		failures int
	}
	var order []string
	byName := map[string]*worst{}
	failed := 0
	prevOut := r.StartOuts
	for _, w := range r.Windows {
		ok := true
		for _, res := range CheckWindow(r.W, w, prevOut) {
			b := byName[res.Name]
			if b == nil {
				b = &worst{res: res}
				byName[res.Name] = b
				order = append(order, res.Name)
			}
			if !res.OK {
				ok = false
				b.failures++
			}
			worse := res.Value > b.res.Value
			if res.Floor {
				worse = res.Value < b.res.Value
			}
			if worse {
				b.res = res
			}
		}
		if !ok {
			failed++
		}
		prevOut = w.Outstanding
	}
	for _, n := range order {
		b := byName[n]
		fmt.Fprintf(stderr, "check %-28s worst %-12.6g limit %-10.6g failed %d/%d\n",
			n, b.res.Value, b.res.Limit, b.failures, len(r.Windows))
	}
	if r.Cal != nil {
		var calibs []time.Duration
		for _, w := range r.Windows {
			calibs = append(calibs, w.Calib)
		}
		fmt.Fprintf(stderr, "reqbench: calibration median %v (reference %v); unscaled wall_s %.6g; set-ups %v, scaled %v\n",
			medianDuration(calibs), calibRef, r.wall(false), r.Setup, r.SetupScaled)
	}
	return failed
}

// rounds splits the windows into whole rounds.
func (r *Run) rounds() [][]Window {
	per := r.W.WindowsPerRound()
	var out [][]Window
	for i := 0; i+per <= len(r.Windows); i += per {
		out = append(out, r.Windows[i:i+per])
	}
	return out
}

// wall is the host time of the measured windows in seconds, scaled to
// reference speed or raw.
func (r *Run) wall(scaledTimes bool) float64 {
	var host time.Duration
	for _, w := range r.Windows {
		if scaledTimes {
			host += w.Scaled
		} else {
			host += w.Host
		}
	}
	return host.Seconds()
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the untraced run's metrics. Host times are scaled
// to reference speed (calib.go).
func endToEnd(r *Run) map[string]Metric {
	var sysPerS, winMS []float64
	for _, rd := range r.rounds() {
		var host time.Duration
		var calls uint64
		for _, w := range rd {
			host += w.Scaled
			calls += w.Delta.Syscalls
		}
		sysPerS = append(sysPerS, float64(calls)/host.Seconds())
	}
	var probe time.Duration
	var serverCalls uint64
	for _, w := range r.Windows {
		winMS = append(winMS, float64(w.Scaled)/1e6)
		probe += w.Delta.ServerProbe
		serverCalls += w.Delta.ServerSyscalls
	}
	return map[string]Metric{
		"setup_s":              {median(seconds(r.SetupScaled)), "s"},
		"wall_s":               {r.wall(true), "s"},
		"window_ms_p50":        {median(winMS), "ms"},
		"window_ms_tail":       {quantile(winMS, tailQuantile), "ms"},
		"sim_syscalls_per_s":   {median(sysPerS), "1/s"},
		"max_rss_mb":           {maxRSSMB(), "MB"},
		"probe_ns_per_syscall": {float64(probe) / float64(serverCalls), "ns"},
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traced measures the workload again in this process, traced, after
// the untraced pass base, and reports the per-layer metrics. The two
// passes must agree on every simulated statistic of every window.
func traced(base *Run, cal *Calibrator, dir string, stdout, stderr io.Writer) error {
	wl := base.W
	runtime.GC()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", wl.Name, base.Seed))

	// The traced pass calibrates only before and after its profiled
	// windows: the profiler slows the calibration loop more than the
	// windows, so calibrations inside the profile would misscale.
	r := &Run{W: wl, Seed: base.Seed, Tr: NewTracer()}
	r.SetUp()
	calibs := cal.RunN(20)
	pf, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	r.Measure(len(base.rounds()))
	pprof.StopCPUProfile()
	calibs = append(calibs, cal.RunN(20)...)
	wall := scaled(time.Duration(r.wall(false)*float64(time.Second)), medianDuration(calibs)).Seconds()
	baseWall := base.wall(true)
	fmt.Fprintf(stderr, "reqbench: traced pass: calibration median %v outside the profile; wall_s %.6g, untraced %.6g\n",
		medianDuration(calibs), wall, baseWall)
	if err := pf.Close(); err != nil {
		return err
	}
	r.Close()
	if err := r.Tr.WriteJSONL(stem + ".spans.jsonl"); err != nil {
		return err
	}
	failed := report(r, stderr)

	same := len(r.Windows) == len(base.Windows)
	for i := 0; same && i < len(r.Windows); i++ {
		if a, b := base.Windows[i].Sim(), r.Windows[i].Sim(); a != b {
			fmt.Fprintf(stderr, "reqbench: window %d: traced %+v != untraced %+v\n", i, b, a)
			same = false
		}
	}
	fmt.Fprintf(stderr, "reqbench: traced and untraced passes agree on all %d windows: %v\n", len(r.Windows), same)

	f, err := os.Open(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	samples, err := layers.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	charge := layers.Charge(samples)
	for _, row := range layers.Table(charge) {
		fmt.Fprintf(stderr, "layer %-12s %8.3fs %5.1f%%\n", row.Layer, row.CPU.Seconds(), 100*row.Share)
	}
	out := Output{
		Correct:   same,
		Attempted: len(r.Windows),
		Failed:    failed,
		Metrics:   perLayer(r, charge, 100*(wall-baseWall)/baseWall),
	}
	return printOutput(stdout, out)
}

package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"reqlens/internal/core"
	"reqlens/internal/harness"
	"reqlens/internal/loadgen"
	"reqlens/internal/probes"
	"reqlens/internal/telemetry"
)

// Counters is a snapshot of the simulation's cumulative counts, read
// through the program's public accessors at a window boundary.
type Counters struct {
	Events uint64 // sim.Env.Executed

	// Syscalls counts every thread on the server kernel: the server and
	// the co-located load generator.
	Syscalls uint64

	// Server-process sums over its threads.
	ServerSyscalls uint64
	ServerCPU      time.Duration
	ServerProbe    time.Duration

	// ActiveServerThreads, in a delta, counts the server threads that
	// used CPU time during the interval.
	ActiveServerThreads int

	Dispatches, Preemptions, CtxSwitches uint64
	RunqWaits                            uint64 // every thread on the kernel

	Packets, PacketsLost uint64

	threadCPU []time.Duration // per server thread, in spawn order
}

// readCounters reads c from the rig's kernel, environment and network.
func readCounters(r *harness.Rig) Counters {
	c := Counters{Events: r.Env.Executed()}
	server := r.Server.Process()
	for _, p := range r.ServerK.Processes() {
		for _, th := range p.Threads() {
			c.Syscalls += th.SyscallCount()
			c.RunqWaits += th.RunQueueWaits()
			if p == server {
				c.ServerSyscalls += th.SyscallCount()
				c.ServerCPU += th.CPUTime()
				c.ServerProbe += th.ProbeCost()
				c.threadCPU = append(c.threadCPU, th.CPUTime())
			}
		}
	}
	c.Dispatches, c.Preemptions, c.CtxSwitches = r.ServerK.SchedCounters()
	c.Packets, c.PacketsLost = r.Net.PacketsSent(), r.Net.PacketsLost()
	return c
}

// Sub returns the counts accumulated between prev and c.
func (c Counters) Sub(prev Counters) Counters {
	d := Counters{
		Events:         c.Events - prev.Events,
		Syscalls:       c.Syscalls - prev.Syscalls,
		ServerSyscalls: c.ServerSyscalls - prev.ServerSyscalls,
		ServerCPU:      c.ServerCPU - prev.ServerCPU,
		ServerProbe:    c.ServerProbe - prev.ServerProbe,
		Dispatches:     c.Dispatches - prev.Dispatches,
		Preemptions:    c.Preemptions - prev.Preemptions,
		CtxSwitches:    c.CtxSwitches - prev.CtxSwitches,
		RunqWaits:      c.RunqWaits - prev.RunqWaits,
		Packets:        c.Packets - prev.Packets,
		PacketsLost:    c.PacketsLost - prev.PacketsLost,
	}
	for i, cpu := range c.threadCPU {
		if i >= len(prev.threadCPU) || cpu > prev.threadCPU[i] {
			d.ActiveServerThreads++
		}
	}
	return d
}

// Window is everything one measured window produced: its host time, the
// load generator's ground truth, each attached observer's view and the
// kernel's own accounting over the same simulated span.
type Window struct {
	Host   time.Duration // host wall time of the window's calls
	Calib  time.Duration // the calibration run right after the window (0: none)
	Scaled time.Duration // Host at reference speed (Host when uncalibrated)

	Delta Counters // counts accumulated during the window
	Round Counters // counts accumulated since the window's round began
	End   Counters // cumulative counts at the window's end

	// Load is the load generator's view since the start of the window's
	// round (the client measures a round at a time); Completed and
	// CompletedRPS are this window's own responses.
	Load         loadgen.Results
	Completed    uint64
	CompletedRPS float64
	RoundEnd     bool // the window closes its round: Load covers the round
	Outstanding  int  // Client.Outstanding at the window's end

	Obs core.Window

	Stream        core.StreamWindow
	StreamDropped uint64 // ring drops during this window
	StreamPolls   int    // StreamObserver.Poll calls
	StreamEvents  int    // events those polls drained

	Wait core.WaitWindow

	// Attribution read-out: the count-min estimate of the server's
	// cumulative syscalls, whether the server was among the top
	// offenders at all, and the width the sketch was built with.
	ServerEstimate uint64
	ServerRanked   bool
	CMSWidth       int
}

// SimStat is the part of a window that depends only on the workload and
// the seed: the traced and untraced runs of one seed must produce equal
// SimStats for every window both measured.
type SimStat struct {
	Events      uint64
	Syscalls    uint64
	ProbeNS     int64
	Completed   uint64
	Outstanding int
	Observers   string // digest of every observer window
}

// Sim returns the window's simulated statistics.
func (w *Window) Sim() SimStat {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v|%d|%v", w.Load, w.Obs, w.Stream, w.Wait, w.ServerEstimate, w.ServerRanked)
	return SimStat{
		Events:      w.Delta.Events,
		Syscalls:    w.Delta.Syscalls,
		ProbeNS:     int64(w.Delta.ServerProbe),
		Completed:   w.Completed,
		Outstanding: w.Outstanding,
		Observers:   fmt.Sprintf("%016x", h.Sum64()),
	}
}

// Run is one process's measurement of one workload and seed.
type Run struct {
	W    *Workload
	Seed int64
	Tr   *Tracer             // nil when untraced
	Reg  *telemetry.Registry // nil when untraced
	Cal  *Calibrator         // nil: host times are reported unscaled

	Setup       []time.Duration // NewRig + Warmup host time per build
	SetupScaled []time.Duration // the same at reference speed

	Rig          *harness.Rig
	Start        Counters // cumulative counts when measurement began
	StartOuts    int      // Client.Outstanding when measurement began
	StartDropped uint64   // stream ring drops when measurement began
	Windows      []Window

	// Traced runs only: the telemetry registry when measurement began
	// and after the first round, and the Go runtime's allocation
	// statistics around the whole measurement.
	RegStart, RegRound1 map[string]float64
	MemStart, MemEnd    runtime.MemStats
}

// SetUp builds and warms the workload's rig W.Setups times, closing all
// but the last, which it keeps for measurement. It warms the rig in
// Rig.Warmup calls of one chunk each, which leave the simulation where
// one call would, so that a calibrated run can calibrate after NewRig
// and after every call and scale each by the calibrations around it,
// as it does the windows: a set-up lasts seconds, over which the host's
// speed drifts.
func (r *Run) SetUp() {
	for i := 0; i < r.W.Setups; i++ {
		if r.Rig != nil {
			sp := r.Tr.Begin("harness.Rig.Close", -1)
			r.Rig.Close()
			r.Tr.End(sp)
			runtime.GC()
		}
		opt := r.W.RigOptions(r.Seed)
		if r.Tr != nil {
			r.Reg = telemetry.New()
			opt.Telemetry = r.Reg
		}
		t0 := time.Now()
		sp := r.Tr.Begin("harness.NewRig", -1)
		r.Rig = harness.NewRig(r.W.Spec, opt)
		r.Tr.End(sp)
		steps := []time.Duration{time.Since(t0)}
		calibs := r.calibrate(nil)
		sp = r.Tr.Begin("harness.Rig.Warmup", -1)
		for left := r.W.Warmup; left > 0; left -= chunk {
			t := time.Now()
			r.Rig.Warmup(min(chunk, left))
			steps = append(steps, time.Since(t))
			calibs = r.calibrate(calibs)
		}
		r.Tr.End(sp)
		var host, atRef time.Duration
		for i, c := range localMedians(calibs) {
			atRef += scaled(steps[i], c)
		}
		for _, d := range steps {
			host += d
		}
		if r.Cal == nil {
			atRef = host
		}
		r.Setup = append(r.Setup, host)
		r.SetupScaled = append(r.SetupScaled, atRef)
	}
	runtime.GC()
	r.markStart()
}

// markStart records the counts at which measurement begins.
func (r *Run) markStart() {
	r.Start = readCounters(r.Rig)
	r.StartOuts = r.Rig.Client.Outstanding()
	if r.Rig.Stream != nil {
		r.StartDropped = r.Rig.Stream.Dropped()
	}
}

// Measure runs the given number of rounds of windows.
func (r *Run) Measure(rounds int) {
	if r.Tr != nil {
		runtime.ReadMemStats(&r.MemStart)
		r.RegStart = r.Reg.Snapshot()
	}
	for i := 0; i < rounds; i++ {
		for j := 0; j < r.W.WindowsPerRound(); j++ {
			r.window()
		}
		if i == 0 && r.Tr != nil {
			r.RegRound1 = r.Reg.Snapshot()
		}
	}
	if r.Tr != nil {
		runtime.ReadMemStats(&r.MemEnd)
	}
	r.scale()
}

// calibrate appends one calibration to calibs when the run is
// calibrated.
func (r *Run) calibrate(calibs []time.Duration) []time.Duration {
	if r.Cal == nil {
		return calibs
	}
	return append(calibs, r.Cal.Run())
}

// scale sets every window's Scaled time from the calibrations around it.
func (r *Run) scale() {
	if r.Cal == nil {
		for i := range r.Windows {
			r.Windows[i].Scaled = r.Windows[i].Host
		}
		return
	}
	calibs := make([]time.Duration, len(r.Windows))
	for i, w := range r.Windows {
		calibs[i] = w.Calib
	}
	for i, c := range localMedians(calibs) {
		r.Windows[i].Scaled = scaled(r.Windows[i].Host, c)
	}
}

// Close tears the measured rig down and lets it be collected.
func (r *Run) Close() {
	sp := r.Tr.Begin("harness.Rig.Close", -1)
	r.Rig.Close()
	r.Tr.End(sp)
	r.Rig = nil
}

// window measures one window: it drives the simulation through the same
// calls Rig.Measure makes (RunFor in chunk steps, draining the stream
// after each), then reads the load generator and every attached
// observer. Each call is a span of the window.
func (r *Run) window() {
	rig, tr := r.Rig, r.Tr
	tr.SetWindow(len(r.Windows))
	var w Window
	t0 := time.Now()
	root := tr.Begin("bench.window", -1)
	per := r.W.WindowsPerRound()
	first := len(r.Windows)%per == 0
	if first {
		rig.Client.StartMeasurement()
	}
	for left := r.W.Window; left > 0; left -= chunk {
		step := min(chunk, left)
		sp := tr.Begin("sim.Env.RunFor", root)
		rig.Env.RunFor(step)
		tr.End(sp)
		if rig.Stream != nil {
			sp := tr.Begin("core.StreamObserver.Poll", root)
			w.StreamEvents += rig.Stream.Poll()
			tr.End(sp)
			w.StreamPolls++
		}
	}
	sp := tr.Begin("loadgen.Client.Snapshot", root)
	w.Load = rig.Client.Snapshot()
	tr.End(sp)
	if rig.Obs != nil {
		sp := tr.Begin("core.Observer.Sample", root)
		w.Obs = rig.Obs.Sample()
		tr.End(sp)
	}
	if rig.Stream != nil {
		sp := tr.Begin("core.StreamObserver.Sample", root)
		w.Stream = rig.Stream.Sample()
		tr.End(sp)
	}
	if rig.Wait != nil {
		sp := tr.Begin("core.WaitProfile.Sample", root)
		w.Wait = rig.Wait.Sample()
		tr.End(sp)
	}
	var top []probes.Offender
	if rig.Attr != nil {
		sp := tr.Begin("core.Attribution.TopOffenders", root)
		top = rig.Attr.TopOffenders(4)
		tr.End(sp)
	}
	tr.End(root)
	w.Host = time.Since(t0)

	// Bookkeeping outside the timed calls.
	n := len(r.Windows)
	prev, roundStart, prevDropped := r.Start, r.Start, r.StartDropped
	if n > 0 {
		prev = r.Windows[n-1].End
		prevDropped = r.Windows[n-1].Stream.Dropped
	}
	if k := n - n%per; k > 0 {
		roundStart = r.Windows[k-1].End
	}
	w.End = readCounters(rig)
	w.Delta = w.End.Sub(prev)
	w.Round = w.End.Sub(roundStart)
	w.RoundEnd = (n+1)%per == 0
	w.Outstanding = rig.Client.Outstanding()
	w.Completed = w.Load.Completed
	if !first {
		w.Completed -= r.Windows[n-1].Load.Completed
	}
	w.CompletedRPS = float64(w.Completed) / r.W.Window.Seconds()
	if rig.Stream != nil {
		w.StreamDropped = w.Stream.Dropped - prevDropped
	}
	if rig.Attr != nil {
		w.CMSWidth = rig.Attr.Probe().Syscalls.Width()
	}
	server := uint64(rig.Server.Process().TGID())
	for _, o := range top {
		if o.TGID == server {
			w.ServerEstimate, w.ServerRanked = o.Syscalls, true
		}
	}
	if r.Cal != nil {
		w.Calib = r.Cal.Run()
	}
	r.Windows = append(r.Windows, w)
}

package main

import (
	"math"
	"time"
)

// perLayer computes the traced run's per-layer metrics. Counts cover
// the first round (one simulated second) and so depend only on the
// workload and the seed; host times are medians over the spans; CPU
// times come from the profile, per simulated second measured.
// overheadPct is the traced run's wall_s over the untraced run's, less
// one, in percent.
func perLayer(r *Run, charge map[string]time.Duration, overheadPct float64) map[string]Metric {
	first := r.rounds()[0]
	d := first[len(first)-1].End.Sub(r.Start)
	load := first[len(first)-1].Load // covers the whole round
	sent := math.Round(load.SentRPS * load.Window.Seconds())
	var events uint64
	var polls, polled int
	for _, w := range r.Windows {
		events += w.Delta.Events
		polls += w.StreamPolls
		polled += w.StreamEvents
	}
	simSec := float64(len(r.Windows)) * r.W.Window.Seconds()

	count := func(v float64) Metric { return Metric{v, "count"} }
	cpu := func(layer string) Metric { return Metric{charge[layer].Seconds() / simSec, "s/sim_s"} }
	reg := func(name string) float64 { return r.RegRound1[name] - r.RegStart[name] }
	span := func(name string, unit time.Duration) float64 {
		ds := r.Tr.Durations(name)
		if len(ds) == 0 {
			return 0
		}
		return median(ds) / float64(unit)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var runFor float64
	for _, ns := range r.Tr.Durations("sim.Env.RunFor") {
		runFor += ns
	}

	return map[string]Metric{
		"harness.new_rig_ms": {span("harness.NewRig", time.Millisecond), "ms"},
		"harness.warmup_s":   {span("harness.Rig.Warmup", time.Second), "s"},
		"harness.close_ms":   {span("harness.Rig.Close", time.Millisecond), "ms"},

		"sim.events":            count(float64(d.Events)),
		"sim.host_ns_per_event": {ratio(runFor, float64(events)), "ns"},
		"sim.switch_cpu_s":      cpu("sim.switch"),
		"sim.loop_cpu_s":        cpu("sim.loop"),

		"kernel.syscalls":     count(float64(d.Syscalls)),
		"kernel.ctx_switches": count(float64(d.CtxSwitches)),
		"kernel.preemptions":  count(float64(d.Preemptions)),
		"kernel.runq_waits":   count(float64(d.RunqWaits)),
		"kernel.cpu_s":        cpu("kernel"),

		"ebpf.runs":                  count(reg("vm_runs_total")),
		"ebpf.insns":                 count(reg("vm_instructions_total")),
		"ebpf.insns_per_run":         {ratio(reg("vm_instructions_total"), reg("vm_runs_total")), "insns"},
		"ebpf.helper_calls":          count(reg("vm_helper_calls_total")),
		"ebpf.map_ops":               count(reg("vm_map_ops_total")),
		"ebpf.ringbuf_bytes":         {reg("ringbuf_bytes_produced_total"), "B"},
		"ebpf.ringbuf_dropped_bytes": {reg("ringbuf_bytes_dropped_total"), "B"},
		"ebpf.cpu_s":                 cpu("ebpf"),

		"core.sample_us":              {span("core.Observer.Sample", time.Microsecond), "us"},
		"core.stream_poll_us":         {span("core.StreamObserver.Poll", time.Microsecond), "us"},
		"core.stream_events_per_poll": {ratio(float64(polled), float64(polls)), "count"},
		"core.wait_sample_us":         {span("core.WaitProfile.Sample", time.Microsecond), "us"},
		"core.top_offenders_us":       {span("core.Attribution.TopOffenders", time.Microsecond), "us"},

		"netsim.packets":      count(float64(d.Packets)),
		"netsim.packets_lost": count(float64(d.PacketsLost)),
		"netsim.cpu_s":        cpu("netsim"),

		"loadgen.sent":        count(sent),
		"loadgen.completed":   count(float64(load.Completed)),
		"loadgen.outstanding": count(float64(first[len(first)-1].Outstanding)),
		"loadgen.cpu_s":       cpu("loadgen"),

		"workloads.cpu_s": cpu("workloads"),

		"runtime.alloc_bytes_per_window": {ratio(float64(r.MemEnd.TotalAlloc-r.MemStart.TotalAlloc), float64(len(r.Windows))), "B"},
		"runtime.gc_cycles":              {float64(r.MemEnd.NumGC-r.MemStart.NumGC) / simSec, "1/sim_s"},

		"bench.trace_overhead_pct": {overheadPct, "%"},
	}
}

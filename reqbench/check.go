package main

import (
	"math"
	"time"

	"reqlens/internal/core"
)

// probeShareLimit is the paper's §VI claim: the probes cost the server
// under 1% of its CPU time.
const probeShareLimit = 0.01

// onCPUTol bounds |wait-state on-CPU - kernel CPU time| / kernel CPU
// time. The two differ by context-switch cost, which the scheduler
// spends on the CPU but does not charge as thread CPU time, and by
// computations preempted across a window edge, which the probe splits
// at the preemption and the kernel charges when they end. The worst
// window of the reference runs was 0.81% off.
const onCPUTol = 0.02

// partitionTol bounds |on-CPU + runnable + blocked - active threads x
// span| / (active threads x span).
const partitionTol = 0.01

// Result is one check applied to one window: the checked quantity, the
// limit it is held to, and whether it passed.
type Result struct {
	Name  string
	Value float64
	Limit float64
	OK    bool
	Floor bool // the limit is a floor: low values are the bad ones
}

// relErr is |got - want| / want (infinite when want is 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}

// CheckEq1 compares the send probe's Eq. 1 RPS estimate with the load
// generator's completed-response rate over the same window.
func CheckEq1(estimate, completed, tol float64) Result {
	e := relErr(estimate, completed)
	return Result{Name: "eq1_vs_completed", Value: e, Limit: tol, OK: e <= tol}
}

// CheckCompletedAtOffered holds the completed rate to the offered rate
// (steady state: the server keeps up).
func CheckCompletedAtOffered(completed, offered, tol float64) Result {
	e := relErr(completed, offered)
	return Result{Name: "completed_at_offered", Value: e, Limit: tol, OK: e <= tol}
}

// CheckCompletedBelowOffered requires the completed rate to stay below
// the offered rate (overload: the server cannot keep up).
func CheckCompletedBelowOffered(completed, offered float64) Result {
	return Result{Name: "completed_below_offered", Value: completed / offered, Limit: 1, OK: completed < offered}
}

// CheckP99UnderQoS requires the client p99 to meet the QoS limit.
func CheckP99UnderQoS(p99, qos time.Duration) Result {
	return Result{Name: "p99_under_qos", Value: float64(p99) / float64(qos), Limit: 1, OK: p99 > 0 && p99 < qos}
}

// CheckP99OverQoS requires the client p99 to miss the QoS limit.
func CheckP99OverQoS(p99, qos time.Duration) Result {
	return Result{Name: "p99_over_qos", Value: float64(p99) / float64(qos), Limit: 1, OK: p99 > qos, Floor: true}
}

// CheckProbeShare holds the probe cost charged to the server's threads
// below probeShareLimit of their CPU time.
func CheckProbeShare(probe, cpu time.Duration) Result {
	s := math.Inf(1)
	if cpu > 0 {
		s = float64(probe) / float64(cpu)
	}
	return Result{Name: "probe_cpu_share", Value: s, Limit: probeShareLimit, OK: probe > 0 && s < probeShareLimit}
}

// CheckBacklogGrows requires Client.Outstanding not to shrink from one
// window to the next.
func CheckBacklogGrows(outstanding, prev int) Result {
	return Result{Name: "backlog_not_shrinking", Value: float64(outstanding - prev), Limit: 0, OK: outstanding >= prev, Floor: true}
}

// CheckStreamEqualsBatch requires the streaming observer's window to
// equal the batch observer's bit for bit whenever the ring dropped
// nothing during the window.
func CheckStreamEqualsBatch(stream core.StreamWindow, dropped uint64, batch core.Window) Result {
	if dropped > 0 {
		return Result{Name: "stream_equals_batch", Value: 0, Limit: 0, OK: true}
	}
	same := stream.Window == batch && batch.Send.Calls > 0
	v := 0.0
	if !same {
		v = 1
	}
	return Result{Name: "stream_equals_batch", Value: v, Limit: 0, OK: same}
}

// CheckOnCPU compares the wait-state probe's on-CPU time with the
// kernel's own CPU accounting for the server's threads.
func CheckOnCPU(onCPU, kernelCPU time.Duration) Result {
	e := relErr(float64(onCPU), float64(kernelCPU))
	return Result{Name: "oncpu_vs_kernel", Value: e, Limit: onCPUTol, OK: e <= onCPUTol}
}

// CheckWaitPartition requires on-CPU, runnable and blocked time to add
// up to the active server threads times the window span, within
// partitionTol. A thread's time is accounted when its interval closes,
// so each active thread's interval still open at either window edge
// shifts a little time between adjacent windows; a thread that never
// runs (the acceptor, once the workers are up) has no transitions and
// is not active.
func CheckWaitPartition(total time.Duration, active int, span time.Duration) Result {
	want := float64(time.Duration(active) * span)
	e := relErr(float64(total), want)
	return Result{Name: "wait_states_partition_span", Value: e, Limit: partitionTol, OK: e <= partitionTol}
}

// CheckCountMin requires the count-min estimate of the server's
// syscalls to be no lower than the kernel's exact count and no higher
// than exact + εN, with ε = e/width and N every syscall the sketch saw.
// The bound is recomputed from the sketch's width and the kernel's own
// syscall total, not asked of the sketch.
func CheckCountMin(estimate, exact, total uint64, width int, ranked bool) Result {
	res := Result{Name: "countmin_within_bound", Value: float64(estimate) - float64(exact)}
	if width <= 0 {
		return res
	}
	bound := uint64(math.Ceil(math.E / float64(width) * float64(total)))
	res.Limit = float64(bound)
	res.OK = ranked && estimate >= exact && estimate-exact <= bound
	return res
}

// CheckWindow applies every check the workload's windows are held to;
// the last window of a round also carries the round's checks.
// prevOutstanding is Client.Outstanding at the previous window's end
// (or at the start of measurement).
func CheckWindow(wl *Workload, w Window, prevOutstanding int) []Result {
	offered := wl.Rate()
	res := []Result{CheckEq1(w.Obs.Send.RatePerSec, w.CompletedRPS, wl.Eq1Tol)}
	if wl.Overload {
		res = append(res,
			CheckCompletedBelowOffered(w.CompletedRPS, offered),
			CheckBacklogGrows(w.Outstanding, prevOutstanding))
	} else {
		res = append(res, CheckCompletedAtOffered(w.CompletedRPS, offered, wl.RateTol))
	}
	// The p99 and the probe share are held to their limits over whole
	// rounds: a 50 ms window holds ~30 responses beyond its p99, too few
	// for a tail checked against a limit, and the paper's overhead claim
	// is a share of CPU time, not of one scheduling burst.
	switch {
	case w.RoundEnd && wl.Overload:
		res = append(res, CheckP99OverQoS(w.Load.P99, wl.Spec.QoS))
	case w.RoundEnd:
		res = append(res,
			CheckP99UnderQoS(w.Load.P99, wl.Spec.QoS),
			CheckProbeShare(w.Round.ServerProbe, w.Round.ServerCPU))
	}
	if wl.AllObservers {
		res = append(res,
			CheckStreamEqualsBatch(w.Stream, w.StreamDropped, w.Obs),
			CheckOnCPU(w.Wait.OnCPU, w.Delta.ServerCPU),
			CheckWaitPartition(w.Wait.Total(), w.Delta.ActiveServerThreads, wl.Window),
			CheckCountMin(w.ServerEstimate, w.End.ServerSyscalls, w.End.Syscalls, w.CMSWidth, w.ServerRanked))
	}
	return res
}

package main

import (
	"fmt"
	"time"

	"reqlens/internal/harness"
	"reqlens/internal/workloads"
)

// chunk is the simulated span the window loop advances per Env.RunFor
// call. It equals the drain interval Node.Advance uses when a streaming
// observer is attached, so the benchmark drives the simulation through
// exactly the calls Rig.Measure would make, while timing each of them.
const chunk = 50 * time.Millisecond

// round is the simulated span of one round of windows. A run measures
// whole rounds, so every run attempts a whole number of rounds of the
// same windows, and the per-round figures (wall_s, sim_syscalls_per_s)
// cover the same simulated work on every workload.
const round = time.Second

// Workload is one benchmark configuration: an application, an offered
// rate, the observers attached, and the tolerances its windows are
// checked against.
type Workload struct {
	Name  string
	Spec  workloads.Spec
	Level float64 // offered rate as a fraction of Spec.FailureRPS

	Window time.Duration // simulated span of one measured window
	Warmup time.Duration // simulated warmup before the first window
	Setups int           // rigs built (and warmed) per run; setup_s is their median

	// SetupHost and RoundHost are the host times of one set-up and of
	// one round at reference speed in the reference figures (README.md).
	// They size a run (Rounds).
	SetupHost, RoundHost time.Duration

	// AllObservers attaches the ring-buffer stream, sketch attribution
	// and the sched wait-state probe beside the batch probes every
	// workload has, and holds the windows to their checks too.
	AllObservers bool

	// Overload selects the saturated-regime checks (completed rate
	// below offered, growing backlog, p99 above QoS) instead of the
	// steady-state ones (completed rate at offered, p99 under QoS,
	// probe cost under 1%).
	Overload bool

	// Eq1Tol bounds |Eq. 1 RPS - completed RPS| / completed RPS.
	Eq1Tol float64
	// RateTol bounds |completed RPS - offered RPS| / offered RPS in the
	// steady workloads.
	RateTol float64
}

// Rate is the offered open-loop rate in requests per second.
func (w *Workload) Rate() float64 { return w.Level * w.Spec.FailureRPS }

// Rounds is the number of rounds a run of the given host seconds
// measures: the whole rounds that fit, at the reference figures, in
// what the set-ups leave of the seconds, calibrations included. It
// depends on the reference figures alone, so every run of a workload
// measures the same simulated work however fast the program is, and at
// reference speed the whole run takes about the given seconds.
func (w *Workload) Rounds(seconds float64) int {
	steps := 1 + int((w.Warmup+chunk-1)/chunk) // NewRig, then Warmup calls
	setups := time.Duration(w.Setups) * (w.SetupHost + time.Duration(steps)*calibRef)
	round := w.RoundHost + time.Duration(w.WindowsPerRound())*calibRef
	return max(1, int((seconds-setups.Seconds())/round.Seconds()))
}

// WindowsPerRound is how many windows make one round.
func (w *Workload) WindowsPerRound() int { return int(round / w.Window) }

// RigOptions is the rig configuration for one build of the workload.
func (w *Workload) RigOptions(seed int64) harness.RigOptions {
	return harness.RigOptions{
		Seed:        seed,
		Rate:        w.Rate(),
		Probes:      true, // every check starts from the batch window
		Stream:      w.AllObservers,
		Attribution: w.AllObservers,
		WaitStates:  w.AllObservers,
	}
}

// Workloads lists the benchmark's workloads by name.
var Workloads = []*Workload{
	{
		// The paper's highest syscall rate below saturation: the
		// simulator hand-off and event loop dominate host time.
		Name: "cache-steady", Spec: workloads.DataCaching(), Level: 0.9,
		Window: 50 * time.Millisecond, Warmup: 500 * time.Millisecond, Setups: 3,
		SetupHost: 1400 * time.Millisecond, RoundHost: 2740 * time.Millisecond,
		// Worst windows of the reference runs: Eq. 1 0.14% off the
		// completed rate, completed rate 0.54% off the offered rate.
		Eq1Tol:  0.02,
		RateTol: 0.02,
	},
	{
		// The Fig. 3/4 regime: open-loop load past the failure point,
		// so a backlog forms during warmup and keeps growing.
		Name: "cache-overload", Spec: workloads.DataCaching(), Level: 1.2,
		Window: 50 * time.Millisecond, Warmup: time.Second, Setups: 2,
		SetupHost: 4580 * time.Millisecond, RoundHost: 4030 * time.Millisecond,
		Overload: true,
		// The co-located client, starved of CPU, reads responses late,
		// so a 50 ms window's completions trail the server's sends by a
		// varying amount: the worst reference window was 4.1% off.
		Eq1Tol: 0.08,
	},
	{
		// Every observer attached: probes write maps, the ring and the
		// sketches on each syscall and sched switch, and every window
		// reads all four back.
		Name: "silo-observers", Spec: workloads.Silo(), Level: 0.6,
		Window: time.Second, Warmup: 500 * time.Millisecond, Setups: 11,
		SetupHost: 72 * time.Millisecond, RoundHost: 133 * time.Millisecond,
		AllObservers: true,
		// Worst reference windows: Eq. 1 0.32%, completed rate 0.40%.
		Eq1Tol:  0.02,
		RateTol: 0.02,
	},
}

// lookup returns the named workload.
func lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

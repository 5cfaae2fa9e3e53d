package main

import (
	"slices"
	"testing"

	"reqlens/internal/harness"
)

// heldOutSeed is a seed no bound or tolerance was tuned on.
const heldOutSeed = 20261018

// smoke builds the workload once and measures n windows.
func smoke(t *testing.T, name string, seed int64, n int, tr *Tracer) *Run {
	t.Helper()
	wl, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	one := *wl
	one.Setups = 1
	r := &Run{W: &one, Seed: seed, Tr: tr}
	r.SetUp()
	for i := 0; i < n; i++ {
		r.window()
	}
	r.Close()
	return r
}

// failures returns the names of the checks w fails.
func failures(wl *Workload, w Window, prevOutstanding int) []string {
	var out []string
	for _, res := range CheckWindow(wl, w, prevOutstanding) {
		if !res.OK {
			out = append(out, res.Name)
		}
	}
	return out
}

// TestWorkloadsPassOnDefaultAndHeldOutSeeds is the smoke of every
// workload: on the default seed and on a held-out one, every measured
// window passes every check.
func TestWorkloadsPassOnDefaultAndHeldOutSeeds(t *testing.T) {
	for _, wl := range Workloads {
		for _, seed := range []int64{1, heldOutSeed} {
			r := smoke(t, wl.Name, seed, 2, nil)
			prev := r.StartOuts
			for i, w := range r.Windows {
				if f := failures(r.W, w, prev); len(f) > 0 {
					t.Errorf("%s seed %d window %d fails %v", wl.Name, seed, i, f)
				}
				prev = w.Outstanding
			}
		}
	}
}

// TestChecksCatchWrongValues feeds each check a wrong value in an
// otherwise passing window and expects the window to fail.
func TestChecksCatchWrongValues(t *testing.T) {
	runs := map[string]*Run{}
	for _, wl := range Workloads {
		runs[wl.Name] = smoke(t, wl.Name, 1, 1, nil)
	}
	cases := []struct {
		workload, check string
		mutate          func(w *Window)
	}{
		// An Eq. 1 estimate 10% off the completed rate, either way.
		{"cache-steady", "eq1_vs_completed", func(w *Window) { w.Obs.Send.RatePerSec = 1.1 * w.CompletedRPS }},
		{"cache-overload", "eq1_vs_completed", func(w *Window) { w.Obs.Send.RatePerSec = 1.1 * w.CompletedRPS }},
		{"silo-observers", "eq1_vs_completed", func(w *Window) { w.Obs.Send.RatePerSec = 0.9 * w.CompletedRPS }},
		{"cache-steady", "completed_at_offered", func(w *Window) { w.CompletedRPS *= 0.8 }},
		{"cache-steady", "p99_under_qos", func(w *Window) { w.RoundEnd, w.Load.P99 = true, 2*runs["cache-steady"].W.Spec.QoS }},
		{"cache-steady", "probe_cpu_share", func(w *Window) { w.RoundEnd, w.Round.ServerProbe = true, w.Round.ServerCPU/50 }},
		{"cache-overload", "completed_below_offered", func(w *Window) { w.CompletedRPS = 1.01 * runs["cache-overload"].W.Rate() }},
		{"cache-overload", "backlog_not_shrinking", func(w *Window) { w.Outstanding = runs["cache-overload"].StartOuts - 1 }},
		{"cache-overload", "p99_over_qos", func(w *Window) { w.RoundEnd, w.Load.P99 = true, runs["cache-overload"].W.Spec.QoS/2 }},
		{"silo-observers", "stream_equals_batch", func(w *Window) { w.Stream.Window.Poll.Calls++ }},
		{"silo-observers", "stream_equals_batch", func(w *Window) { w.Stream.Window.Send.VarianceUS2 += 1e-9 }},
		{"silo-observers", "oncpu_vs_kernel", func(w *Window) { w.Wait.OnCPU = w.Delta.ServerCPU * 105 / 100 }},
		{"silo-observers", "wait_states_partition_span", func(w *Window) { w.Wait.Blocked += w.Wait.Total() / 20 }},
		{"silo-observers", "countmin_within_bound", func(w *Window) { w.ServerEstimate = w.End.ServerSyscalls - 1 }},
		{"silo-observers", "countmin_within_bound", func(w *Window) { w.ServerEstimate = w.End.ServerSyscalls + w.End.Syscalls/100 }},
		{"silo-observers", "countmin_within_bound", func(w *Window) { w.ServerRanked = false }},
	}
	for _, c := range cases {
		r := runs[c.workload]
		w := r.Windows[0]
		if f := failures(r.W, w, r.StartOuts); len(f) > 0 {
			t.Fatalf("%s: unmodified window already fails %v", c.workload, f)
		}
		c.mutate(&w)
		f := failures(r.W, w, r.StartOuts)
		if !slices.Contains(f, c.check) {
			t.Errorf("%s: wrong %s value: window fails %v, not %s", c.workload, c.check, f, c.check)
		}
	}
}

// TestTracedRunMatchesUntraced checks that tracing and the telemetry
// registry leave every simulated statistic of every window unchanged.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"cache-steady", "silo-observers"} {
		plain := smoke(t, name, 1, 2, nil)
		traced := smoke(t, name, 1, 2, NewTracer())
		if traced.Reg == nil || len(traced.Tr.spans) == 0 {
			t.Fatalf("%s: traced run recorded no telemetry or spans", name)
		}
		for i := range plain.Windows {
			if a, b := plain.Windows[i].Sim(), traced.Windows[i].Sim(); a != b {
				t.Errorf("%s window %d: untraced %+v, traced %+v", name, i, a, b)
			}
		}
	}
}

// TestStepwiseWarmupMatchesOneCall checks that warming a rig in one
// Rig.Warmup call per chunk, as SetUp does, leaves the simulation where
// one call over the whole warmup would.
func TestStepwiseWarmupMatchesOneCall(t *testing.T) {
	for _, name := range []string{"cache-steady", "silo-observers"} {
		stepwise := smoke(t, name, 1, 2, nil)
		wl := stepwise.W
		whole := &Run{W: wl, Seed: 1, Rig: harness.NewRig(wl.Spec, wl.RigOptions(1))}
		whole.Rig.Warmup(wl.Warmup)
		whole.markStart()
		for range stepwise.Windows {
			whole.window()
		}
		whole.Close()
		if stepwise.Start.Events != whole.Start.Events {
			t.Errorf("%s: %d events after the stepwise warmup, %d after one call", name, stepwise.Start.Events, whole.Start.Events)
		}
		for i := range stepwise.Windows {
			if a, b := whole.Windows[i].Sim(), stepwise.Windows[i].Sim(); a != b {
				t.Errorf("%s window %d: one warmup call %+v, stepwise %+v", name, i, a, b)
			}
		}
	}
}

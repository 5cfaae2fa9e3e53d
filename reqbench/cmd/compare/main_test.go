package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.05
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "sim_syscalls_per_s", Better: "higher", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, base, base, "within"},
		{lower, base, scale(base, 0.9), "better"},
		{lower, base, scale(base, 1.1), "worse"},
		{lower, base, scale(base, 1.03), "within"},
		{higher, base, scale(base, 1.1), "better"},
		{higher, base, scale(base, 0.9), "worse"},
		{lower, base, noisy, "unresolved"},
		// Wide, but every run of B beats every run of A.
		{lower, scale(noisy, 2), scale(noisy, 0.5), "better"},
		{metricSpec{Name: "sim.events", Better: "lower"}, base, scale(base, 2), ""},
	}
	for i, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d (%s): verdict %q, want %q", i, c.m.Name, got, c.want)
		}
	}
}

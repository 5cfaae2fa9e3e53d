// Command compare summarizes one set of benchmark runs, or compares two,
// with the standard library alone.
//
//	go run ./cmd/compare [-bench ../BENCHMARK.json] A [B]
//
// A set is a directory holding <workload>/<seed>.out, one file per run
// whose last line is the run's JSON result (reqbench/runs.sh writes this
// layout). For each workload and metric it prints each side's median
// and quartiles (Python's statistics.quantiles(n=4)) and the spread, the
// distance between the quartiles as a share of the median.
//
// With one set, a metric is marked "wide" when its spread exceeds a
// third of its bound. With two, the verdict is:
//
//	better      B improves on A by more than A's spread
//	worse       B is worse than A by more than the bound
//	unresolved  the spread is wider than the bound and neither side
//	            beats every run of the other
//	within      none of these
//
// Per-layer metrics have no bound and get no verdict. The exit status
// is 1 when any metric is worse or the two sets fail a different share
// of their operations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set is one directory of runs: workload -> runs.
type set map[string][]result

func main() {
	bench := flag.String("bench", "../BENCHMARK.json", "benchmark definition (metric order, direction and bounds)")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] A [B]")
		os.Exit(2)
	}
	spec, err := readSpec(*bench)
	if err != nil {
		fatal(err)
	}
	var sets []set
	for _, dir := range flag.Args() {
		s, err := readSet(dir)
		if err != nil {
			fatal(err)
		}
		sets = append(sets, s)
	}
	if !report(os.Stdout, spec, sets) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readSet reads every <workload>/<seed>.out under dir.
func readSet(dir string) (set, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>/<seed>.out files", dir)
	}
	s := set{}
	for _, f := range files {
		r, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		w := filepath.Base(filepath.Dir(f))
		s[w] = append(s[w], r)
	}
	return s, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (result, error) {
	var r result
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s: last line: %w", path, err)
	}
	return r, nil
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(data, n=4) (the default, exclusive method)
// computes them; one value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// worseBy is how much b is worse than a, as a share of a, in the
// metric's direction (negative when b is better).
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// separated reports whether every value of b is better (+1) or worse
// (-1) than every value of a, or neither (0).
func separated(m metricSpec, a, b []float64) int {
	amin, amax := minMax(a)
	bmin, bmax := minMax(b)
	lowerBetter := m.Better != "higher"
	switch {
	case (lowerBetter && bmax < amin) || (!lowerBetter && bmin > amax):
		return 1
	case (lowerBetter && bmin > amax) || (!lowerBetter && bmax < amin):
		return -1
	}
	return 0
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// verdict classifies b against a for metric m.
func verdict(m metricSpec, a, b []float64) string {
	if m.Bound == nil {
		return ""
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	wide := math.Max(spread(aq1, amed, aq3), spread(bq1, bmed, bq3))
	sep := separated(m, a, b)
	worse := worseBy(m, amed, bmed)
	switch {
	case wide > *m.Bound && sep == 0:
		return "unresolved"
	case worse > *m.Bound:
		return "worse"
	case -worse > spread(aq1, amed, aq3) && (sep == 1 || wide <= *m.Bound):
		return "better"
	}
	return "within"
}

// values extracts one metric from a workload's runs.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failedShare is the share of attempted operations that failed, with
// whether every run was correct.
func failedShare(runs []result) (share float64, failed, attempted int, correct bool) {
	correct = true
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
		correct = correct && r.Correct
	}
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	return share, failed, attempted, correct
}

// report prints the table and returns false when a metric is worse or
// the failed shares differ.
func report(w *os.File, spec benchSpec, sets []set) bool {
	ok := true
	var names []string
	for n := range sets[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range names {
		fmt.Fprintf(w, "== %s\n", wl)
		var shares []float64
		for i, s := range sets {
			share, f, a, c := failedShare(s[wl])
			shares = append(shares, share)
			fmt.Fprintf(w, "set %c: %d runs, failed %d/%d (%.6f), all correct: %v\n", 'A'+i, len(s[wl]), f, a, share, c)
		}
		if len(shares) == 2 && shares[0] != shares[1] {
			fmt.Fprintln(w, "failed shares differ")
			ok = false
		}
		for _, m := range metrics {
			a := values(sets[0][wl], m.Name)
			if len(a) == 0 {
				continue
			}
			q1, med, q3 := quartiles(a)
			line := fmt.Sprintf("%-32s %-8s A %12.6g [%.6g, %.6g] spread %6.2f%%", m.Name, m.Unit, med, q1, q3, 100*spread(q1, med, q3))
			if m.Bound != nil {
				line += fmt.Sprintf(" bound %4.1f%%", 100**m.Bound)
			}
			if len(sets) == 1 {
				if m.Bound != nil && spread(q1, med, q3) > *m.Bound/3 {
					line += "  wide"
				}
				fmt.Fprintln(w, line)
				continue
			}
			b := values(sets[1][wl], m.Name)
			if len(b) == 0 {
				fmt.Fprintln(w, line+"  (missing in B)")
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			v := verdict(m, a, b)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "%s | B %12.6g [%.6g, %.6g] spread %6.2f%% | change %+7.2f%% %s\n", line,
				bmed, bq1, bq3, 100*spread(bq1, bmed, bq3), 100*(bmed-med)/math.Abs(med), v)
		}
	}
	return ok
}

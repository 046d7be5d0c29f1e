package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics (the "exclusive"
// method, as Python's statistics.quantiles(xs, n=4) computes them).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k(n+1)/4 on a 1-based scale, between the two order
		// statistics nearest to it that exist.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to the runs of a base and a changed
// result set. The change is worse when its median is worse than the
// base's by more than the bound. When either side's spread exceeds the
// bound the metric is unresolved, not unchanged — unless every run of
// the change reads at least as well as every run of the base.
func judge(d metricDef, base, change []float64) string {
	_, mb, _ := quartiles(base)
	_, mc, _ := quartiles(change)
	rel := 0.0  // relative worsening of the median
	sign := 1.0 // positive worsening means the change is worse
	if d.Better == "higher" {
		sign = -1
	}
	switch {
	case mb != 0:
		rel = sign * (mc - mb) / math.Abs(mb)
	case sign*(mc-mb) > 0:
		rel = math.Inf(1)
	case sign*(mc-mb) < 0:
		rel = math.Inf(-1)
	}
	if rel > d.Bound {
		return verdictWorse
	}
	if math.Max(spread(base), spread(change)) > d.Bound {
		worstChange, bestBase := change[0], base[0]
		for _, v := range change {
			if sign*v > sign*worstChange {
				worstChange = v
			}
		}
		for _, v := range base {
			if sign*v < sign*bestBase {
				bestBase = v
			}
		}
		if sign*worstChange > sign*bestBase {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// judgeExact compares an exact metric (bound zero) run by run: it
// depends on the seed and on nothing else, so runs with the same seed
// must read the same, and any difference is a change that has to be
// deliberate. Sets that share no seed cannot be compared.
func judgeExact(rf, change resultFile, workload, metric string) string {
	bySeed := map[int64]float64{}
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			bySeed[r.Seed] = m.Value
		}
	}
	verdict := verdictUnresolved
	for _, r := range change.Runs {
		m, ok := r.Metrics[metric]
		want, shared := bySeed[r.Seed]
		if !ok || !shared || r.Workload != workload || r.Traced {
			continue
		}
		if m.Value != want {
			return verdictWorse
		}
		verdict = verdictOK
	}
	return verdict
}

// compareFiles prints one row per workload x end-to-end metric of two
// result files and reports whether any row is worse.
func compareFiles(w io.Writer, basePath, changePath string) (worse bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (median of n)\tchange (median of n)\tchange/base\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b := metricRuns(base, wl.name, d.Name)
			c := metricRuns(change, wl.name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict := judge(d, b, c)
			if d.Bound == 0 {
				verdict = judgeExact(base, change, wl.name, d.Name)
			}
			worse = worse || verdict == verdictWorse
			_, mb, _ := quartiles(b)
			_, mc, _ := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.4f\t%.2f\t%s\n",
				wl.name, d.Name, mb, d.Unit, len(b), mc, d.Unit, len(c), ratio(mc, mb), d.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// metricRuns collects one metric's values over a file's untraced runs
// of one workload.
func metricRuns(rf resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

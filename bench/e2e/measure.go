package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric. Bound is the relative worsening of the
// median that counts as a regression; only end-to-end metrics have one.
// A bound of zero marks an exact metric: it repeats bit for bit, so any
// change must be deliberate and re-pin the goldens. Gated marks the
// metrics BENCHMARK.json lists under end_to_end and the machine-readable
// last line carries.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Gated  bool
}

// endToEnd lists the ten end-to-end metrics every workload reports.
// Three are not gated. The two exact ones read zero or the same on every
// run, which a gate on relative change cannot use: fail_ratio is carried
// by the last line's correct/attempted/failed fields and
// virt_ms_per_pass by the goldens and the traced run
// (sim.virt_ms_per_pass). pass_ms_p90 does not repeat within 0.15 on the
// reference host (ten-seed quartile spreads of up to 0.16), so it is
// reported but demoted to the traced run's list (bench.pass_ms_p90).
//
// The bounds are set from ten-seed spreads on the reference host, whose
// own noise floor is high; README.md has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"cells_per_s", "1/s", "higher", 0.25, true},
	{"pass_ms_p50", "ms", "lower", 0.25, true},
	{"pass_ms_p90", "ms", "lower", 0.15, false},
	{"cpu_ms_per_cell", "ms", "lower", 0.25, true},
	{"allocs_per_cell", "count", "lower", 0.02, true},
	{"alloc_kb_per_cell", "KiB", "lower", 0.02, true},
	{"peak_rss_mb", "MiB", "lower", 0.20, true},
	{"virt_ms_per_pass", "ms", "lower", 0, false},
	{"fail_ratio", "ratio", "lower", 0, false},
}

// minSamplesBeyond is the choosing-metrics rule for a percentile: it is
// reported only when at least this many samples lie beyond it.
const minSamplesBeyond = 10

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it), and
// how many samples lie strictly beyond that rank.
func quantile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// metricValue is one measured metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: its shape and its metrics.
type runResult struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Passes is the number of timed passes, which is also the sample
	// count behind pass_ms_p50 and pass_ms_p90.
	Passes int `json:"passes"`
	// P90Resolved reports whether pass_ms_p90 had at least ten samples
	// beyond it.
	P90Resolved bool                   `json:"p90_resolved"`
	Cells       int                    `json:"cells"`
	Failed      int                    `json:"failed"`
	FirstFail   string                 `json:"first_fail,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// defsFor returns the metric table a run reports against.
func defsFor(res runResult) []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// printRun prints a run's metrics by name with unit, one per line.
func printRun(w io.Writer, res runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "workload %s (%s): seed %d, GOMAXPROCS %d, %d passes, %d cells, %d failed\n",
		res.Workload, kind, res.Seed, res.GOMAXPROCS, res.Passes, res.Cells, res.Failed)
	if res.FirstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.FirstFail)
	}
	if !res.Traced && !res.P90Resolved {
		fmt.Fprintf(w, "  note: pass_ms_p90 has fewer than %d samples beyond it (%d passes)\n", minSamplesBeyond, res.Passes)
	}
	for _, d := range defsFor(res) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// printLastLine prints the machine-readable result: one JSON object with
// exactly the keys correct, attempted, failed and metrics. An untraced
// run carries every gated end-to-end metric, a traced run every
// per-layer metric.
func printLastLine(w io.Writer, res runResult) error {
	metrics := map[string]metricValue{}
	for _, d := range defsFor(res) {
		if !res.Traced && !d.Gated {
			continue
		}
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s: metric %s was not measured", res.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Cells, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// passResult is what one pass over a workload's cells produced.
type passResult struct {
	cells     int
	failed    int
	firstFail string // "cell: reason" of the first failure
	virtNs    int64
	counts    *layerCounts // traced runs only
}

// timing is the raw measurement of a sequence of timed passes.
type timing struct {
	passMs    []float64
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocB    uint64
	cells     int
	failed    int
	firstFail string
	// virtNs is the virtual time of the first timed pass. The goldens
	// pin every cell of every pass; taking one pass rather than a mean
	// makes the metric repeat exactly however many passes a time budget
	// fits (serve passes differ by fault seed).
	virtNs int64
	counts layerCounts
}

// enough reports whether the timed loop has done its work: the fixed
// pass count, or the time budget when one is set.
func enough(done, passes int, seconds float64, start time.Time) bool {
	if seconds > 0 {
		return time.Since(start).Seconds() >= seconds
	}
	return done >= passes
}

// timePasses runs timed passes of inst until enough says stop. first is
// the index of the first pass, so a traced run and the untraced
// comparison run after it never repeat a serve-cold seed.
func timePasses(inst instance, sc spanCtx, first, passes int, seconds float64) timing {
	var t timing
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; !enough(i, passes, seconds, start); i++ {
		p0 := time.Now()
		span := sc.start("pass")
		pr := inst.pass(first+i, span)
		span.end()
		t.passMs = append(t.passMs, float64(time.Since(p0).Nanoseconds())/1e6)
		t.cells += pr.cells
		t.failed += pr.failed
		if t.firstFail == "" {
			t.firstFail = pr.firstFail
		}
		if i == 0 {
			t.virtNs = pr.virtNs
		}
		if pr.counts != nil {
			t.counts.add(pr.counts)
		}
	}
	t.wall = time.Since(start)
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	t.mallocs = ms1.Mallocs - ms0.Mallocs
	t.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return t
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// loadAvg1m is the host's one-minute load average, 0 when unreadable.
func loadAvg1m() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// median is the 0.5-quantile by nearest rank.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// setupReps and setupBudget size the repeated set-up: at least
// setupReps, and more while they are short, so the median of a 20 ms
// set-up is as steady as the median of a 2 s one.
const (
	setupReps    = 3
	setupMaxReps = 15
	setupBudget  = time.Second
)

// runTimed is the untraced run: set up (several times, reporting the
// median), run the timed passes, and compute the end-to-end metrics.
func runTimed(w workload, e env, seconds float64) (runResult, error) {
	procs := w.gomaxprocs(runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	var inst instance
	var setups []float64
	var spent time.Duration
	for rep := 0; ; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return runResult{}, err
			}
		}
		start := time.Now()
		var err error
		inst, err = setUp(w, e, spanCtx{})
		if err != nil {
			return runResult{}, err
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		spent += d
		if e.quick || rep+1 >= setupMaxReps || (rep+1 >= setupReps && spent >= setupBudget) {
			break
		}
	}
	passes := w.passes
	if e.quick {
		passes, seconds = 1, 0
	}
	t := timePasses(inst, spanCtx{}, 0, passes, seconds)
	if err := inst.close(); err != nil {
		return runResult{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return runResult{}, err
	}

	res := runResult{
		Workload: w.name, Seed: e.seed, GOMAXPROCS: procs,
		Passes: len(t.passMs), Cells: t.cells, Failed: t.failed, FirstFail: t.firstFail,
		Metrics: map[string]metricValue{},
	}
	p90, beyond := quantile(t.passMs, 0.9)
	res.P90Resolved = beyond >= minSamplesBeyond
	cells := float64(t.cells)
	values := map[string]float64{
		"setup_s":           median(setups),
		"cells_per_s":       cells / t.wall.Seconds(),
		"pass_ms_p50":       median(t.passMs),
		"pass_ms_p90":       p90,
		"cpu_ms_per_cell":   float64(t.cpu.Nanoseconds()) / 1e6 / cells,
		"allocs_per_cell":   float64(t.mallocs) / cells,
		"alloc_kb_per_cell": float64(t.allocB) / 1024 / cells,
		"peak_rss_mb":       rss,
		"virt_ms_per_pass":  float64(t.virtNs) / 1e6,
		"fail_ratio":        float64(t.failed) / cells,
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return res, nil
}

// setUp builds a workload instance and runs the untimed warm-up pass,
// which fails the run — naming the cell — on any golden mismatch.
func setUp(w workload, e env, sc spanCtx) (instance, error) {
	span := sc.start("setup")
	defer span.end()
	inst, err := w.build(e)
	if err != nil {
		return nil, fmt.Errorf("workload %s: set-up: %w", w.name, err)
	}
	if pr := inst.pass(warmupPass, span); pr.failed > 0 {
		inst.close()
		return nil, fmt.Errorf("workload %s: warm-up pass: %d of %d cells failed; first: %s",
			w.name, pr.failed, pr.cells, pr.firstFail)
	}
	return inst, nil
}

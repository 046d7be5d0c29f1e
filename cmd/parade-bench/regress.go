package main

// Benchmark-regression harness (-regress): runs the substrate and
// directive benchmark suites under -benchmem, parses the standard
// `go test -bench` output, and writes a JSON report. With -baseline
// (a prior report, or raw `go test -bench` output) each result carries
// the old numbers and a speedup factor, and -max-regress can turn a
// slowdown into a non-zero exit for CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchSuites is what -regress measures: the event-kernel and diff-engine
// benchmarks (the hot paths every figure rides on), the protocol
// engine's per-cell fixed cost (New, StateFingerprint) and shared-access
// fast path, the directive replay benchmarks, and the Fig 6/7
// microbenchmark sweeps.
var benchSuites = []struct {
	Pkg     string
	Pattern string
}{
	{"./internal/sim", "."},
	{"./internal/dsm", "."},
	{"./internal/hlrc", "."},
	{"./internal/microbench", "."},
	{".", "^(BenchmarkFig6Critical|BenchmarkFig7Single)$"},
}

type benchResult struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`

	// Status is "new" when a baseline was given but carries no entry for
	// this benchmark (it anchors the next baseline rather than being
	// gated), empty otherwise.
	Status string `json:"status,omitempty"`

	// Filled in when a baseline is given and has a matching benchmark.
	BaselineNsPerOp     *float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineBytesPerOp  *int64   `json:"baseline_b_per_op,omitempty"`
	BaselineAllocsPerOp *int64   `json:"baseline_allocs_per_op,omitempty"`
	Speedup             *float64 `json:"speedup,omitempty"`
}

type benchReport struct {
	Schema string `json:"schema"`
	// Host provenance: baseline JSONs are compared across machines and
	// toolchains, so the report records the Go version and the
	// parallelism the numbers were measured under.
	GoVersion  string        `json:"go_version,omitempty"`
	Gomaxprocs int           `json:"gomaxprocs,omitempty"`
	NumCPU     int           `json:"num_cpu,omitempty"`
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchtime  string        `json:"benchtime"`
	Baseline   string        `json:"baseline,omitempty"`
	Results    []benchResult `json:"results"`
}

var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts benchmark lines from `go test -bench` output.
// The report's goos/goarch/cpu header fields are filled from the first
// occurrence of the corresponding metadata lines.
func parseBenchOutput(out []byte, rep *benchReport) []benchResult {
	var results []benchResult
	pkg := ""
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "goos:") && rep.Goos == "":
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:") && rep.Goarch == "":
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:") && rep.CPU == "":
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		r := benchResult{
			Pkg:  pkg,
			Name: cpuSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""),
		}
		// f[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerS = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results = append(results, r)
	}
	return results
}

// loadBaseline reads a prior -regress JSON report or raw `go test -bench`
// output and indexes it by benchmark name.
func loadBaseline(path string) (map[string]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []benchResult
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		var rep benchReport
		if err := json.Unmarshal(trimmed, &rep); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		results = rep.Results
	} else {
		var rep benchReport
		results = parseBenchOutput(data, &rep)
	}
	base := make(map[string]benchResult, len(results))
	for _, r := range results {
		base[r.Name] = r
	}
	return base, nil
}

// runRegress executes the benchmark suites and writes the JSON report to
// outPath ("-" for stdout). Returns the number of benchmarks that got
// slower than maxRegress times their baseline (0 when no baseline or
// maxRegress <= 0).
func runRegress(outPath, baselinePath, benchtime string, maxRegress float64) (int, error) {
	rep := benchReport{
		Schema:     "parade-bench-regress/v1",
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchtime:  benchtime,
	}
	// A gate without a baseline would pass vacuously; refuse instead of
	// letting CI silently stop checking for slowdowns.
	if maxRegress > 0 && baselinePath == "" {
		return 0, fmt.Errorf("-max-regress %g requires -baseline; refusing to run an unanchored gate", maxRegress)
	}
	// Load the baseline up front so a bad path fails before, not after,
	// minutes of benchmarking.
	var base map[string]benchResult
	if baselinePath != "" {
		var err error
		if base, err = loadBaseline(baselinePath); err != nil {
			return 0, err
		}
		rep.Baseline = baselinePath
	}
	for _, s := range benchSuites {
		args := []string{"test", "-run", "^$", "-bench", s.Pattern, "-benchmem", "-benchtime", benchtime, s.Pkg}
		fmt.Fprintf(os.Stderr, "regress: go %s\n", strings.Join(args, " "))
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			return 0, fmt.Errorf("go test %s: %v\n%s", s.Pkg, err, out)
		}
		rep.Results = append(rep.Results, parseBenchOutput(out, &rep)...)
	}

	regressions := 0
	matched := 0
	if base != nil {
		var fresh []string
		for i := range rep.Results {
			b, ok := base[rep.Results[i].Name]
			if !ok || b.NsPerOp <= 0 {
				// A benchmark the baseline has never seen is expected when a
				// PR adds suites: mark it "new" so the report (and the next
				// baseline regeneration) anchors it, rather than silently
				// skipping it or failing the gate.
				rep.Results[i].Status = "new"
				fresh = append(fresh, rep.Results[i].Name)
				continue
			}
			matched++
			r := &rep.Results[i]
			ns, by, al := b.NsPerOp, b.BytesPerOp, b.AllocsPerOp
			r.BaselineNsPerOp, r.BaselineBytesPerOp, r.BaselineAllocsPerOp = &ns, &by, &al
			sp := ns / r.NsPerOp
			r.Speedup = &sp
			if maxRegress > 0 && r.NsPerOp > ns*maxRegress {
				regressions++
				fmt.Fprintf(os.Stderr, "regress: %s slowed %.2fx (%.1f -> %.1f ns/op)\n",
					r.Name, r.NsPerOp/ns, ns, r.NsPerOp)
			}
		}
		if len(fresh) > 0 {
			fmt.Fprintf(os.Stderr, "regress: %d benchmark(s) new (no baseline entry): %s\n",
				len(fresh), strings.Join(fresh, ", "))
		}
		// A baseline whose names match nothing (renamed benchmarks, wrong
		// file) would also make the gate vacuous.
		if maxRegress > 0 && matched == 0 {
			return 0, fmt.Errorf("baseline %s matched none of the %d benchmarks; the -max-regress gate checked nothing",
				baselinePath, len(rep.Results))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return regressions, err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "regress: wrote %d results to %s\n", len(rep.Results), outPath)
	return regressions, nil
}

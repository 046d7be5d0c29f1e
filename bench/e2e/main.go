// Command e2e is the repository's performance ledger: one program that
// runs six end-to-end workloads against the simulator and the sweep
// service, checks every result against pinned goldens, and prints ten
// end-to-end metrics per workload by name and unit. A separate traced
// run (-traced) produces the per-layer numbers: host-time share by
// internal package from a CPU profile, exact protocol counts per pass,
// per-operation layer drivers, and the kernel/observability ratios.
//
// Layers are measured from outside — through their public functions,
// their public reports, and a profile taken by this process — so the
// benchmark changes nothing under internal/. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics;
// README.md in this directory says why each was chosen and how they
// interact.
//
//	go run ./bench/e2e -seed 1                  # every workload, fixed pass counts
//	go run ./bench/e2e -workload pages -seconds 15
//	go run ./bench/e2e -workload pages -traced -trace-out pages.trace.json
//	go run ./bench/e2e -runs 10 -out a.json     # a set of runs for -compare
//	go run ./bench/e2e -compare a.json b.json
//	go run ./bench/e2e -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	out      string
	golden   string
	runs     int
	quick    bool
}

func main() { os.Exit(run()) }

func run() int {
	var opt options
	var trace int
	var update bool
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "run one workload in this process (default: every workload, each in a fresh child process)")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: picks the serve job seeds and the order of cells within a pass")
	flag.Float64Var(&opt.seconds, "seconds", 0, "measure for this many seconds instead of the workload's fixed pass count")
	flag.BoolVar(&opt.traced, "traced", false, "traced run: CPU profile, Config.Obs and spans on; prints the per-layer metrics")
	flag.IntVar(&trace, "trace", 0, "1 is the same as -traced")
	flag.StringVar(&opt.traceOut, "trace-out", "", "write the traced run's spans to this file as Chrome trace JSON")
	flag.StringVar(&opt.out, "out", "", "write the result set to this file as JSON")
	flag.StringVar(&opt.golden, "golden", "bench/e2e/golden.json", "path of the pinned goldens")
	flag.IntVar(&opt.runs, "runs", 1, "runs per workload (seeds seed, seed+1, ...), so -compare can see the spread")
	flag.BoolVar(&opt.quick, "quick", false, "smoke: one pass per workload, goldens checked, timings meaningless")
	flag.BoolVar(&update, "update-golden", false, "re-pin the goldens from fault-free in-process runs and exit")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	opt.traced = opt.traced || trace == 1

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: -compare takes two result files")
			return 2
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			return 1
		}
	case update:
		err = updateGolden(opt)
	case opt.workload != "":
		err = runOne(opt)
	default:
		err = runAll(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	return 0
}

// scratchDir is where temporary WAL directories and child result files
// go: inside the working directory, never in the system temp directory.
const scratchDir = ".bench_build"

// runOne runs one workload in this process and prints its metrics; the
// last line of standard output is the machine-readable result.
func runOne(opt options) error {
	w, err := workloadByName(opt.workload)
	if err != nil {
		return err
	}
	gold, err := loadGolden(opt.golden)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	env := env{seed: opt.seed, quick: opt.quick, tmpRoot: scratchDir, gold: gold[w.name]}
	var res runResult
	if opt.traced {
		res, err = runTraced(w, env, opt.seconds, opt.traceOut)
	} else {
		res, err = runTimed(w, env, opt.seconds)
	}
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := writeResultFile(opt.out, []runResult{res}); err != nil {
			return err
		}
	}
	printRun(os.Stdout, res)
	return printLastLine(os.Stdout, res)
}

// runAll runs every workload opt.runs times, each run in a fresh child
// process so peak RSS, GC state and the GOMAXPROCS pin of one workload
// do not leak into the next.
func runAll(opt options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "e2e-runs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var all []runResult
	failed := false
	for r := 0; r < opt.runs; r++ {
		for _, w := range workloads {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, r))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed + int64(r)),
				"-seconds", fmt.Sprint(opt.seconds), "-golden", opt.golden, "-out", file}
			if opt.traced {
				args = append(args, "-traced")
			}
			if opt.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			// The child's report goes to our stderr; only the combined
			// table below is this process's standard output.
			cmd.Stdout = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
			rf, err := readResultFile(file)
			if err != nil {
				return err
			}
			all = append(all, rf.Runs...)
			for _, res := range rf.Runs {
				failed = failed || res.Failed > 0
			}
		}
	}
	if opt.out != "" {
		if err := writeResultFile(opt.out, all); err != nil {
			return err
		}
	}
	for _, res := range all {
		printRun(os.Stdout, res)
	}
	if failed {
		return fmt.Errorf("some cells failed their golden check (fail_ratio > 0)")
	}
	return nil
}

// hostShape records where a result set was measured.
type hostShape struct {
	NumCPU    int     `json:"num_cpu"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	LoadAvg1m float64 `json:"load_avg_1m"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema string      `json:"schema"`
	Host   hostShape   `json:"host"`
	Runs   []runResult `json:"runs"`
}

const resultSchema = "parade-bench-e2e/v1"

func writeResultFile(path string, runs []runResult) error {
	rf := resultFile{
		Schema: resultSchema,
		Host: hostShape{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, LoadAvg1m: loadAvg1m()},
		Runs: runs,
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

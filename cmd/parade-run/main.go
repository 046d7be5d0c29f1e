// Command parade-run executes one scenario — a harness.Cell, the same
// description the matrices, the figures and parade-serve run — and prints
// its one-line result report with the protocol counter report.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/hlrc"
	"parade/internal/obs"
)

// openOut opens path for writing ("-" selects stdout) and returns a
// buffered writer plus a finish func that flushes and closes it.
func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		w := bufio.NewWriter(stdout)
		return w, w.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	finish := func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return w, finish, nil
}

// newSink builds the trace sink selected by -trace-format.
func newSink(format string, w io.Writer) (obs.Sink, error) {
	switch format {
	case "text":
		return obs.NewTextSink(w), nil
	case "jsonl":
		return obs.NewJSONLSink(w), nil
	case "chrome":
		return obs.NewChromeSink(w), nil
	default:
		return nil, fmt.Errorf("unknown trace format %q (want text, jsonl, or chrome)", format)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: the flags name one harness.Cell, which lowers and
// runs like every other cell; the command attaches only execution
// control (an obs recorder, the -timeout deadline). It returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parade-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cell harness.Cell
	fs.StringVar(&cell.App, "app", "cg", "application: cg, ep, helmholtz, md, lockmix, quad, taskdep, or a directive (critical, single, atomic, reduction, barrier, for, parallel)")
	fs.StringVar(&cell.Mode, "mode", "hybrid", "runtime mode: hybrid (ParADE) or sdsm (the KDSM baseline)")
	fs.StringVar(&cell.Scale, "scale", "", "problem size: empty (the matrix size), bench, paper, or an NPB class S, W, A (cg and ep)")
	fs.IntVar(&cell.Nodes, "nodes", 4, "cluster nodes")
	fs.IntVar(&cell.ThreadsPerNode, "tpn", 1, "computational threads per node")
	fs.IntVar(&cell.CPUsPerNode, "cpus", 2, "CPUs per node")
	fs.StringVar(&cell.Fabric, "fabric", "via", "interconnect: via or tcp")
	fs.StringVar(&cell.FaultProfile, "faults", "", "inject faults: profile name (drop, dup, reorder, straggler, chaos)")
	fs.Int64Var(&cell.Seed, "fault-seed", 1, "fault-plane seed (with -faults)")
	fs.StringVar(&cell.Crash, "crash", "", "crash-and-restart events: node@barrier[,node@barrier...], e.g. 1@2")
	fs.StringVar(&cell.Policy, "policy", "", "hlrc protocol policy: invalidate, update, or adaptive (empty = legacy)")
	fs.StringVar(&cell.Hetero, "hetero", "", "heterogeneous machine profile: uniform, fasthalf, or slow1 (empty = uniform)")
	pages := fs.Int("pages", 0, "print the N hottest shared pages after the run")
	traceOut := fs.String("trace", "", "write a protocol trace to this file ('-' for stdout)")
	traceFormat := fs.String("trace-format", "text", "trace format: text, jsonl, or chrome")
	traceMsgs := fs.Bool("trace-msgs", false, "include per-message send events in the trace (verbose)")
	metricsOut := fs.String("metrics", "", "write observability metrics JSON to this file ('-' for stdout)")
	timeout := fs.Duration("timeout", 0, "wall-clock guard: cancel the run after this host time and dump partial stats (0 disables)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "parade-run: %v\n", err)
		return 1
	}

	cfg, err := cell.BuildConfig()
	if err != nil {
		return fail(err)
	}
	cfg.Deadline = *timeout
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		// Every return path completes the capture, which an early exit
		// would leave truncated.
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "parade-run: %v\n", err)
			}
		}()
	}

	var rec *obs.Recorder
	var traceFinish func() error
	if *traceOut != "" || *metricsOut != "" {
		rec = obs.New(cfg.Nodes)
		rec.TraceMessages(*traceMsgs)
		if *traceOut != "" {
			w, finish, err := openOut(*traceOut, stdout)
			if err != nil {
				return fail(err)
			}
			sink, err := newSink(*traceFormat, w)
			if err != nil {
				return fail(err)
			}
			rec.AddSink(sink)
			traceFinish = finish
		}
		cfg.Obs = rec
	}

	res, err := cell.RunWith(cfg)
	if errors.Is(err, core.ErrCanceled) {
		// A -timeout abort does not vanish with a bare error: the partial
		// report (counters and virtual time reached before the abort) is
		// dumped so a hung configuration is still diagnosable.
		fmt.Fprintf(stderr, "parade-run: %v\n", err)
		fmt.Fprintf(stderr, "parade-run: partial stats at abort (virtual time %v, host budget %v):\n%s\n",
			res.Time, *timeout, res.Counters.String())
		return 1
	} else if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, res.Summary())
	fmt.Fprintln(stdout, res.Counters.String())
	if *pages > 0 {
		stats := res.PageReport
		if len(stats) > *pages {
			stats = stats[:*pages]
		}
		fmt.Fprintln(stdout, hlrc.RenderPageReport(stats))
	}

	if rec != nil {
		// Close flushes sink trailers (the Chrome format is not valid
		// JSON until then), after which the files themselves can close.
		if err := rec.Close(); err != nil {
			return fail(err)
		}
		if traceFinish != nil {
			if err := traceFinish(); err != nil {
				return fail(err)
			}
		}
		if *metricsOut != "" {
			w, finish, err := openOut(*metricsOut, stdout)
			if err != nil {
				return fail(err)
			}
			if err := rec.Metrics().WriteJSON(w); err != nil {
				return fail(err)
			}
			if err := finish(); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

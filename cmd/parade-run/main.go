// Command parade-run executes one of the paper's applications under a
// chosen cluster configuration and prints the result with the protocol
// counter report.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/hlrc"
	"parade/internal/kdsm"
	"parade/internal/netsim"
	"parade/internal/obs"
)

// printPages renders the hottest-pages table when requested.
func printPages(rep core.Report, n int) {
	if n <= 0 {
		return
	}
	stats := rep.PageReport
	if len(stats) > n {
		stats = stats[:n]
	}
	fmt.Println(hlrc.RenderPageReport(stats))
}

// openOut opens path for writing ("-" selects stdout) and returns a
// buffered writer plus a finish func that flushes and closes it.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		w := bufio.NewWriter(os.Stdout)
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

// clusterFlags are the flag values that shape the cluster configuration.
type clusterFlags struct {
	nodes, tpn, cpus      int
	mode, fabric, policy  string
	faults, hetero, crash string
	faultSeed             int64
	timeout               time.Duration
}

// clusterConfig lowers the flags to the cluster configuration the chosen
// application runs under. Every name is resolved by the package that owns
// it, so an unknown value is an error naming the valid ones.
func clusterConfig(f clusterFlags) (core.Config, error) {
	cfg := core.Config{Nodes: f.nodes, ThreadsPerNode: f.tpn, CPUsPerNode: f.cpus,
		Mode: core.Hybrid, HomeMigration: true, Policy: f.policy,
		Deadline: f.timeout}
	var err error
	if cfg.Fabric, err = netsim.FabricByName(f.fabric); err != nil {
		return cfg, err
	}
	cfg = cfg.WithDefaults()
	switch f.mode {
	case "parade":
	case "kdsm":
		cfg = kdsm.FromParade(cfg)
	default:
		return cfg, fmt.Errorf("unknown -mode %q (have parade, kdsm)", f.mode)
	}
	if f.faults != "" {
		prof, err := netsim.ProfileByName(f.faults, f.faultSeed)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = &prof
	}
	if cfg.Hetero, err = netsim.HeteroByName(f.hetero, cfg.Nodes); err != nil {
		return cfg, err
	}
	if f.crash != "" {
		events, err := harness.ParseCrash(f.crash)
		if err != nil {
			return cfg, err
		}
		if len(events) == 0 {
			return cfg, fmt.Errorf("empty -crash spec")
		}
		cfg.Crash = &hlrc.CrashPlan{Events: events}
	}
	return cfg, nil
}

func main() {
	app := flag.String("app", "cg", "application: cg, ep, helmholtz, md, lockmix, quad, taskdep")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tpn := flag.Int("tpn", 1, "computational threads per node")
	cpus := flag.Int("cpus", 2, "CPUs per node")
	mode := flag.String("mode", "parade", "runtime mode: parade or kdsm")
	class := flag.String("class", "T", "problem class for cg/ep (T,S,W,A)")
	fabric := flag.String("fabric", "via", "interconnect: via or tcp")
	pages := flag.Int("pages", 0, "print the N hottest shared pages after the run")
	traceOut := flag.String("trace", "", "write a protocol trace to this file ('-' for stdout)")
	traceFormat := flag.String("trace-format", "text", "trace format: text, jsonl, or chrome")
	traceMsgs := flag.Bool("trace-msgs", false, "include per-message send events in the trace (verbose)")
	metricsOut := flag.String("metrics", "", "write observability metrics JSON to this file ('-' for stdout)")
	faults := flag.String("faults", "", "inject faults: profile name (drop, dup, reorder, straggler, chaos)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-plane seed (with -faults)")
	crash := flag.String("crash", "", "crash-and-restart events: node@barrier[,node@barrier...], e.g. 1@2")
	policy := flag.String("policy", "", "hlrc protocol policy: invalidate, update, or adaptive (empty = legacy)")
	hetero := flag.String("hetero", "", "heterogeneous machine profile: uniform, fasthalf, or slow1 (empty = uniform)")
	timeout := flag.Duration("timeout", 0, "wall-clock guard: cancel the run after this host time and dump partial stats (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	// stopProfile completes the -cpuprofile capture, which os.Exit alone
	// would leave truncated; every exit path runs it first.
	stopProfile := func() {}
	exit := func() {
		stopProfile()
		os.Exit(1)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "parade-run: %v\n", err)
		exit()
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail(err)
		}
		stopProfile = func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "parade-run: %v\n", err)
			}
		}
		defer stopProfile()
	}

	// failRun handles an application error. A -timeout abort is the typed
	// core.ErrCanceled chain; instead of vanishing with a bare error, the
	// partial report (counters and virtual time reached before the abort)
	// is dumped so a hung configuration is still diagnosable.
	failRun := func(err error, rep core.Report) {
		if errors.Is(err, core.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "parade-run: %v\n", err)
			fmt.Fprintf(os.Stderr, "parade-run: partial stats at abort (virtual time %v, host budget %v):\n%s\n",
				rep.Time, *timeout, rep.Counters.String())
			exit()
		}
		fail(err)
	}

	cfg, err := clusterConfig(clusterFlags{
		nodes: *nodes, tpn: *tpn, cpus: *cpus, mode: *mode, fabric: *fabric,
		policy: *policy, faults: *faults, faultSeed: *faultSeed, hetero: *hetero,
		crash: *crash, timeout: *timeout,
	})
	if err != nil {
		fail(err)
	}

	var rec *obs.Recorder
	var traceFinish func() error
	if *traceOut != "" || *metricsOut != "" {
		rec = obs.New(cfg.Nodes)
		rec.TraceMessages(*traceMsgs)
		if *traceOut != "" {
			w, finish, err := openOut(*traceOut)
			if err != nil {
				fail(err)
			}
			sink, err := newSink(*traceFormat, w)
			if err != nil {
				fail(err)
			}
			rec.AddSink(sink)
			traceFinish = finish
		}
		cfg.Obs = rec
	}

	switch *app {
	case "cg":
		cl, err := apps.CGClassByName(*class)
		if err != nil {
			fail(err)
		}
		r, err := apps.RunCG(cfg, cl)
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("CG class %s: zeta=%.12f rnorm=%.3e nz=%d kernel=%v util=%.2f\n",
			cl.Name, r.Zeta, r.RNorm, r.NZ, r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "ep":
		cl, err := apps.EPClassByName(*class)
		if err != nil {
			fail(err)
		}
		r, err := apps.RunEP(cfg, cl)
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("EP class %s: sx=%.6f sy=%.6f accepted=%.0f kernel=%v util=%.2f\n",
			cl.Name, r.Sx, r.Sy, r.Accepted, r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "helmholtz":
		r, err := apps.RunHelmholtz(cfg, apps.HelmholtzDefault())
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("Helmholtz: err=%.3e iters=%d kernel=%v util=%.2f\n",
			r.Error, r.Iterations, r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "md":
		r, err := apps.RunMD(cfg, apps.MDDefault())
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("MD: e0=%.6f efinal=%.6f drift=%.3e kernel=%v util=%.2f\n",
			r.E0, r.EFinal, r.MaxDrift, r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "lockmix":
		r, err := apps.RunLockmix(cfg, apps.LockmixDefault())
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("Lockmix: sum=%.0f expected=%.0f time=%v util=%.2f\n",
			r.Sum, r.Expected, r.Report.Time, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "quad":
		r, err := apps.RunQuad(cfg, apps.QuadDefault())
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("Quad: integral=%x tablesum=%x kernel=%v util=%.2f\n",
			math.Float64bits(r.Integral), math.Float64bits(r.TableSum),
			r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	case "taskdep":
		// Result bits and the DSM fingerprint print as raw hex so a
		// steal-schedule divergence is a one-line diff, not a rounding
		// question.
		r, err := apps.RunTaskdep(cfg, apps.TaskdepDefault())
		if err != nil {
			failRun(err, r.Report)
		}
		fmt.Printf("Taskdep: pipe=%x offload=%x check=%x memhash=%016x kernel=%v util=%.2f\n",
			math.Float64bits(r.PipeSum), math.Float64bits(r.OffloadSum),
			math.Float64bits(r.CheckSum), r.Report.MemHash,
			r.KernelTime, r.Report.Utilization())
		fmt.Println(r.Report.Counters.String())
		printPages(r.Report, *pages)
	default:
		fail(fmt.Errorf("unknown app %q", *app))
	}

	if rec != nil {
		// Close flushes sink trailers (the Chrome format is not valid
		// JSON until then), after which the files themselves can close.
		if err := rec.Close(); err != nil {
			fail(err)
		}
		if traceFinish != nil {
			if err := traceFinish(); err != nil {
				fail(err)
			}
		}
		if *metricsOut != "" {
			w, finish, err := openOut(*metricsOut)
			if err != nil {
				fail(err)
			}
			if err := rec.Metrics().WriteJSON(w); err != nil {
				fail(err)
			}
			if err := finish(); err != nil {
				fail(err)
			}
		}
	}
}

package harness

import (
	"fmt"
	"math"
	"strings"

	"parade/internal/apps"
	"parade/internal/core"
	"parade/internal/kdsm"
	"parade/internal/microbench"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// RunFunc executes a kernel under cfg and returns the result-bits
// fingerprint (hex of the exact float64 bits of every result field — any
// single-bit difference changes the string), the kernel time, and the
// run report.
type RunFunc func(cfg core.Config) (string, sim.Duration, core.Report, error)

// Problem is one workload size of a kernel: the words a figure title
// prints for it, and its run.
type Problem struct {
	Desc string
	Run  RunFunc
}

// MatrixApp is one kernel of the app table, the app axis of Cell. Run
// executes the kernel at its matrix workload size. Bench and Paper are
// its figure sizes (Cell.Scale "bench" and "paper"); their Run is nil
// for kernels no application figure plots. LockCaching marks the
// lock-protocol stress kernel, which runs with lazy-release tokens so
// the cached lock path gets coverage.
type MatrixApp struct {
	Name         string
	LockCaching  bool
	Run          RunFunc
	Bench, Paper Problem
}

// Figure scales: the values of Cell.Scale besides "" (matrix size).
const (
	ScaleBench = "bench" // simulator-friendly figure sizes
	ScalePaper = "paper" // the paper's problem sizes (slow)
)

// Problem returns the kernel's problem at scale: "" is the matrix size,
// ScaleBench and ScalePaper the figure sizes.
func (a MatrixApp) Problem(scale string) (Problem, error) {
	var p Problem
	switch scale {
	case "":
		return Problem{Run: a.Run}, nil
	case ScaleBench:
		p = a.Bench
	case ScalePaper:
		p = a.Paper
	default:
		return p, fmt.Errorf("unknown scale %q (valid: %s, %s, or empty for the matrix size)", scale, ScaleBench, ScalePaper)
	}
	if p.Run == nil {
		return p, fmt.Errorf("app %q has no figure sizes (scale is valid for cg, ep, helmholtz, md)", a.Name)
	}
	return p, nil
}

func cgRun(class apps.CGClass) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunCG(cfg, class)
		return fpBits(r.Zeta, r.RNorm, float64(r.NZ)), r.KernelTime, r.Report, err
	}
}

// cgProblem is a CG figure size. The bench size is class W, not S:
// class S's vectors span so few pages that eight nodes degenerate into
// pure false sharing, which class A's 64 MB problem does not suffer.
func cgProblem(class apps.CGClass) Problem {
	return Problem{"class " + class.Name, cgRun(class)}
}

func epRun(class apps.EPClass) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunEP(cfg, class)
		vs := []float64{r.Sx, r.Sy, r.Accepted}
		vs = append(vs, r.Counts[:]...)
		return fpBits(vs...), r.KernelTime, r.Report, err
	}
}

func epProblem(class apps.EPClass) Problem {
	return Problem{"class " + class.Name, epRun(class)}
}

func helmholtzRun(prm apps.HelmholtzParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunHelmholtz(cfg, prm)
		return fpBits(r.Error, float64(r.Iterations)), r.KernelTime, r.Report, err
	}
}

func helmholtzProblem(n, maxIter int) Problem {
	prm := apps.HelmholtzDefault()
	prm.N, prm.M, prm.MaxIter = n, n, maxIter
	return Problem{fmt.Sprintf("%dx%d, %d iters", prm.N, prm.M, prm.MaxIter), helmholtzRun(prm)}
}

func mdRun(prm apps.MDParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunMD(cfg, prm)
		return fpBits(r.E0, r.EFinal, r.MaxDrift), r.KernelTime, r.Report, err
	}
}

func mdProblem(np, steps int) Problem {
	prm := apps.MDDefault()
	prm.NP, prm.Steps = np, steps
	return Problem{fmt.Sprintf("%d particles, %d steps", prm.NP, prm.Steps), mdRun(prm)}
}

// matrixApps is the kernel table: the app axis the acceptance matrices
// and internal/fleet enumerate (MatrixAppNames), with the figure sizes
// of the four kernels Figs. 8–11 plot.
var matrixApps = []MatrixApp{
	{Name: "helmholtz", Run: helmholtzRun(apps.HelmholtzTest()),
		Bench: helmholtzProblem(192, 100), Paper: helmholtzProblem(512, 1000)},
	{Name: "ep", Run: epRun(apps.EPClassT),
		Bench: epProblem(apps.EPClass{Name: "bench", M: 20, PerPair: apps.EPClassA.PerPair}),
		Paper: epProblem(apps.EPClassA)},
	{Name: "cg", Run: cgRun(apps.CGClassT),
		Bench: cgProblem(apps.CGClassW), Paper: cgProblem(apps.CGClassA)},
	{Name: "md", Run: mdRun(apps.MDTest()),
		Bench: mdProblem(256, 20), Paper: mdProblem(512, 1000)},
	{Name: "quad", Run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		// The irregular tasking kernel: adaptive-quadrature tasks with
		// cross-node stealing, so steal traffic degrades gracefully under
		// injected faults like every other protocol.
		r, err := apps.RunQuad(cfg, apps.QuadTest())
		return fpBits(r.Integral, r.TableSum), r.KernelTime, r.Report, err
	}},
	{Name: "taskdep", Run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		// The dependence-graph and offload kernel always runs on the
		// "fasthalf" heterogeneous machine so device placement is
		// observable in its matrices. Applied here — constant across
		// every cell — so the bit-identity invariants still compare
		// like with like.
		h, err := netsim.HeteroByName("fasthalf", cfg.Nodes)
		if err != nil {
			return "", 0, core.Report{}, err
		}
		cfg.Hetero = h
		r, err := apps.RunTaskdep(cfg, apps.TaskdepTest())
		return fpBits(r.PipeSum, r.OffloadSum, r.CheckSum), r.KernelTime, r.Report, err
	}},
	{Name: "lockmix", LockCaching: true, Run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		// The lock-protocol stress kernel runs with lazy-release tokens
		// (LockCaching, applied by Cell.Normalize) so the cached lock path
		// (lockcache.go) degrades gracefully too, not just the
		// centralized one.
		r, err := apps.RunLockmix(cfg, apps.LockmixTest())
		return fpBits(r.Sum, r.Expected), r.Report.Time, r.Report, err
	}},
}

// MicroReps is the directive repetition count (the paper ran "over 100").
const MicroReps = 100

// directiveApps are the EPCC-style directive microbenchmarks of
// Figs. 6–7 (internal/microbench), one app per directive. The kernel
// time is the time per directive execution over MicroReps repetitions;
// the result bits are that time's. They are apps a cell can name, not
// part of the matrices' app axis.
var directiveApps = func() []MatrixApp {
	var out []MatrixApp
	for _, name := range microbench.Directives() {
		bench, _ := microbench.ByName(name)
		out = append(out, MatrixApp{Name: name, Run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
			r, err := bench(cfg, MicroReps)
			return fmt.Sprintf("%016x", uint64(r.PerOp)), r.PerOp, r.Report, err
		}})
	}
	return out
}()

// MatrixAppByName resolves one app of the table: a matrix kernel or a
// directive microbenchmark.
func MatrixAppByName(name string) (MatrixApp, error) {
	for _, a := range matrixApps {
		if a.Name == name {
			return a, nil
		}
	}
	for _, a := range directiveApps {
		if a.Name == name {
			return a, nil
		}
	}
	return MatrixApp{}, fmt.Errorf("harness: unknown app %q (valid: %s; directives: %s)",
		name, strings.Join(MatrixAppNames(), ", "), strings.Join(microbench.Directives(), ", "))
}

// MatrixAppNames returns the matrix kernel names in canonical order.
func MatrixAppNames() []string {
	names := make([]string, len(matrixApps))
	for i, a := range matrixApps {
		names[i] = a.Name
	}
	return names
}

// MatrixModes are the directive-execution modes of the matrices.
func MatrixModes() []string { return []string{"hybrid", "sdsm"} }

// MatrixModeConfig builds the cluster configuration one matrix mode uses:
// "hybrid" is the full ParADE runtime (message-passing collectives for
// small data, migratory home), "sdsm" is the conventional KDSM baseline.
func MatrixModeConfig(mode string, nodes, threadsPerNode int) (core.Config, error) {
	switch mode {
	case "hybrid":
		return core.Config{Nodes: nodes, ThreadsPerNode: threadsPerNode,
			Mode: core.Hybrid, HomeMigration: true}.WithDefaults(), nil
	case "sdsm":
		return kdsm.Config(nodes, threadsPerNode, 2), nil
	}
	return core.Config{}, fmt.Errorf("harness: unknown mode %q (valid: hybrid, sdsm)", mode)
}

// fpBits fingerprints float64 results exactly: any single-bit
// difference in any field changes the string.
func fpBits(vs ...float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}

package harness

import (
	"fmt"
	"math"
	"strconv"
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

// Problem is one workload size of a kernel: the Cell.Scale that selects
// it, the words a figure title prints for it, and its run.
type Problem struct {
	Scale string
	Desc  string
	Run   RunFunc
}

// MatrixApp is one kernel of the app table, the app axis of Cell. Run
// executes the kernel at its matrix workload size (Cell.Scale ""), which
// Desc names where a size has a name (NPB class T). Sizes are its other
// workload sizes, each selected by its Scale: the figure sizes
// ScaleBench and ScalePaper of the kernels Figs. 8–11 plot, the NPB
// classes S, W and A of cg and ep, and ScaleBench for the tasking and
// lock kernels. LockCaching marks the lock-protocol stress kernel, which
// runs with lazy-release tokens so the cached lock path gets coverage.
// Hetero names the machine profile a kernel always runs on; a cell that
// names another is invalid. summary formats a run's one-line report.
type MatrixApp struct {
	Name        string
	LockCaching bool
	Hetero      string
	Desc        string
	Run         RunFunc
	Sizes       []Problem
	summary     func(p Problem, v []float64, run MatrixRun) string
}

// Figure scales: the values of Cell.Scale every figure kernel has
// besides "" (matrix size).
const (
	ScaleBench = "bench" // simulator-friendly figure sizes
	ScalePaper = "paper" // the paper's problem sizes (slow)
)

// Problem returns the kernel's problem at scale: "" is the matrix size,
// any other value one of Sizes.
func (a MatrixApp) Problem(scale string) (Problem, error) {
	if scale == "" {
		return Problem{Desc: a.Desc, Run: a.Run}, nil
	}
	for _, p := range a.Sizes {
		if p.Scale == scale {
			return p, nil
		}
	}
	if len(a.Sizes) == 0 {
		return Problem{}, fmt.Errorf("app %q has no figure sizes (scale must be empty)", a.Name)
	}
	scales := make([]string, len(a.Sizes))
	for i, p := range a.Sizes {
		scales[i] = p.Scale
	}
	return Problem{}, fmt.Errorf("unknown scale %q (valid: %s, or empty for the matrix size)", scale, strings.Join(scales, ", "))
}

func cgRun(class apps.CGClass) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunCG(cfg, class)
		return fpBits(r.Zeta, r.RNorm, float64(r.NZ)), r.KernelTime, r.Report, err
	}
}

// cgProblem is a CG size. The bench size is class W, not S: class S's
// vectors span so few pages that eight nodes degenerate into pure false
// sharing, which class A's 64 MB problem does not suffer.
func cgProblem(scale string, class apps.CGClass) Problem {
	return Problem{scale, "class " + class.Name, cgRun(class)}
}

func epRun(class apps.EPClass) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunEP(cfg, class)
		vs := []float64{r.Sx, r.Sy, r.Accepted}
		vs = append(vs, r.Counts[:]...)
		return fpBits(vs...), r.KernelTime, r.Report, err
	}
}

func epProblem(scale string, class apps.EPClass) Problem {
	return Problem{scale, "class " + class.Name, epRun(class)}
}

func helmholtzRun(prm apps.HelmholtzParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunHelmholtz(cfg, prm)
		return fpBits(r.Error, float64(r.Iterations)), r.KernelTime, r.Report, err
	}
}

func helmholtzProblem(scale string, n, maxIter int) Problem {
	prm := apps.HelmholtzDefault()
	prm.N, prm.M, prm.MaxIter = n, n, maxIter
	return Problem{scale, fmt.Sprintf("%dx%d, %d iters", prm.N, prm.M, prm.MaxIter), helmholtzRun(prm)}
}

func mdRun(prm apps.MDParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunMD(cfg, prm)
		return fpBits(r.E0, r.EFinal, r.MaxDrift), r.KernelTime, r.Report, err
	}
}

func mdProblem(scale string, np, steps int) Problem {
	prm := apps.MDDefault()
	prm.NP, prm.Steps = np, steps
	return Problem{scale, fmt.Sprintf("%d particles, %d steps", prm.NP, prm.Steps), mdRun(prm)}
}

// quadRun is the irregular tasking kernel: adaptive-quadrature tasks with
// cross-node stealing, so steal traffic degrades gracefully under
// injected faults like every other protocol.
func quadRun(prm apps.QuadParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunQuad(cfg, prm)
		return fpBits(r.Integral, r.TableSum), r.KernelTime, r.Report, err
	}
}

// taskdepHetero is the machine the dependence-graph and offload kernel
// always runs on, so device placement is observable in its matrices.
const taskdepHetero = "fasthalf"

// taskdepRun applies taskdepHetero itself — constant across every cell,
// so the bit-identity invariants still compare like with like, and also
// for callers that run MatrixApp.Run on a configuration of their own.
func taskdepRun(prm apps.TaskdepParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		h, err := netsim.HeteroByName(taskdepHetero, cfg.Nodes)
		if err != nil {
			return "", 0, core.Report{}, err
		}
		cfg.Hetero = h
		r, err := apps.RunTaskdep(cfg, prm)
		return fpBits(r.PipeSum, r.OffloadSum, r.CheckSum), r.KernelTime, r.Report, err
	}
}

// lockmixRun is the lock-protocol stress kernel. It runs with
// lazy-release tokens (LockCaching, applied by Cell.Normalize) so the
// cached lock path (lockcache.go) degrades gracefully too, not just the
// centralized one.
func lockmixRun(prm apps.LockmixParams) RunFunc {
	return func(cfg core.Config) (string, sim.Duration, core.Report, error) {
		r, err := apps.RunLockmix(cfg, prm)
		return fpBits(r.Sum, r.Expected), r.Report.Time, r.Report, err
	}
}

// matrixApps is the kernel table: the app axis the acceptance matrices
// and internal/fleet enumerate (MatrixAppNames), with each kernel's
// other sizes and its one-line report. A report reads the result values
// back from the result bits, so the runs themselves format nothing.
var matrixApps = []MatrixApp{
	{Name: "helmholtz", Run: helmholtzRun(apps.HelmholtzTest()),
		Sizes: []Problem{helmholtzProblem(ScaleBench, 192, 100), helmholtzProblem(ScalePaper, 512, 1000)},
		summary: func(_ Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("Helmholtz: err=%.3e iters=%d kernel=%v util=%.2f",
				v[0], int(v[1]), run.Kernel, run.Utilization())
		}},
	{Name: "ep", Desc: "class T", Run: epRun(apps.EPClassT),
		Sizes: []Problem{
			epProblem(ScaleBench, apps.EPClass{Name: "bench", M: 20, PerPair: apps.EPClassA.PerPair}),
			epProblem(ScalePaper, apps.EPClassA),
			epProblem("S", apps.EPClassS), epProblem("W", apps.EPClassW), epProblem("A", apps.EPClassA)},
		summary: func(p Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("EP %s: sx=%.6f sy=%.6f accepted=%.0f kernel=%v util=%.2f",
				p.Desc, v[0], v[1], v[2], run.Kernel, run.Utilization())
		}},
	{Name: "cg", Desc: "class T", Run: cgRun(apps.CGClassT),
		Sizes: []Problem{
			cgProblem(ScaleBench, apps.CGClassW), cgProblem(ScalePaper, apps.CGClassA),
			cgProblem("S", apps.CGClassS), cgProblem("W", apps.CGClassW), cgProblem("A", apps.CGClassA)},
		summary: func(p Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("CG %s: zeta=%.12f rnorm=%.3e nz=%d kernel=%v util=%.2f",
				p.Desc, v[0], v[1], int(v[2]), run.Kernel, run.Utilization())
		}},
	{Name: "md", Run: mdRun(apps.MDTest()),
		Sizes: []Problem{mdProblem(ScaleBench, 256, 20), mdProblem(ScalePaper, 512, 1000)},
		summary: func(_ Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("MD: e0=%.6f efinal=%.6f drift=%.3e kernel=%v util=%.2f",
				v[0], v[1], v[2], run.Kernel, run.Utilization())
		}},
	{Name: "quad", Run: quadRun(apps.QuadTest()),
		Sizes: []Problem{{ScaleBench, "tol 1e-8", quadRun(apps.QuadDefault())}},
		summary: func(_ Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("Quad: integral=%x tablesum=%x kernel=%v util=%.2f",
				math.Float64bits(v[0]), math.Float64bits(v[1]), run.Kernel, run.Utilization())
		}},
	{Name: "taskdep", Hetero: taskdepHetero, Run: taskdepRun(apps.TaskdepTest()),
		Sizes: []Problem{{ScaleBench, "16 segments", taskdepRun(apps.TaskdepDefault())}},
		// Result bits and the DSM fingerprint print as raw hex so a
		// steal-schedule divergence is a one-line diff, not a rounding
		// question.
		summary: func(_ Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("Taskdep: pipe=%x offload=%x check=%x memhash=%016x kernel=%v util=%.2f",
				math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]),
				run.MemHash, run.Kernel, run.Utilization())
		}},
	{Name: "lockmix", LockCaching: true, Run: lockmixRun(apps.LockmixTest()),
		Sizes: []Problem{{ScaleBench, "3 locks", lockmixRun(apps.LockmixDefault())}},
		summary: func(_ Problem, v []float64, run MatrixRun) string {
			return fmt.Sprintf("Lockmix: sum=%.0f expected=%.0f time=%v util=%.2f",
				v[0], v[1], run.Time, run.Utilization())
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
		}, summary: func(_ Problem, _ []float64, run MatrixRun) string {
			return fmt.Sprintf("%s: per-directive=%v reps=%d util=%.2f", name, run.Kernel, MicroReps, run.Utilization())
		}})
	}
	return out
}()

// MatrixAppByName resolves one app of the table: a matrix kernel or a
// directive microbenchmark.
func MatrixAppByName(name string) (MatrixApp, error) {
	for i := range matrixApps {
		if matrixApps[i].Name == name {
			return matrixApps[i], nil
		}
	}
	for i := range directiveApps {
		if directiveApps[i].Name == name {
			return directiveApps[i], nil
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

// resultValues reads result bits written by fpBits back as the float64
// results they fingerprint. fpBits writes only 16-digit hex words, so
// ParseUint cannot fail.
func resultValues(bits string) []float64 {
	v := make([]float64, len(bits)/16)
	for i := range v {
		u, _ := strconv.ParseUint(bits[16*i:16*(i+1)], 16, 64)
		v[i] = math.Float64frombits(u)
	}
	return v
}

// Summary is the run's one-line report — its kernel's result values,
// kernel time and utilization — as parade-run prints it. It is formatted
// on request only; no cell run formats one.
func (r MatrixRun) Summary() string {
	app, err := MatrixAppByName(r.Cell.App)
	if err != nil {
		return err.Error()
	}
	p, err := app.Problem(r.Cell.Scale)
	if err != nil {
		return err.Error()
	}
	return app.summary(p, resultValues(r.Result), r)
}

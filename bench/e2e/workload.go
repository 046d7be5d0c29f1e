package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/hlrc"
	"parade/internal/microbench"
	"parade/internal/obs"
	"parade/internal/sim"
)

// env is what a workload's set-up sees of the invocation.
type env struct {
	seed    int64
	quick   bool
	traced  bool   // attach Config.Obs to every cell and collect counts
	tmpRoot string // where temporary WAL directories are created
	gold    map[string]goldenCell
}

// instance is a workload that has been set up. pass runs one walk over
// its cells (one HTTP batch for the serve workloads); index warmupPass
// is the untimed warm-up.
type instance interface {
	pass(i int, sc spanCtx) passResult
	close() error
}

const warmupPass = -1

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json repeats.
	why string
	// passes is the fixed work of a run without -seconds, sized to
	// 12-18 s on the two-core reference host.
	passes int
	// gomaxprocs pins the scheduler so the numbers measure the program.
	gomaxprocs func(nproc int) int
	build      func(env) (instance, error)
	// reference computes the values -update-golden pins.
	reference func() (map[string]goldenCell, error)
}

func one(int) int { return 1 }

func upTo4(nproc int) int {
	if nproc > 4 {
		return 4
	}
	return nproc
}

// workloads is the benchmark's workload table, in reporting order.
var workloads = []workload{
	{
		name: "pages", passes: 100, gomaxprocs: one,
		why:   "cg/helmholtz/md x hybrid/sdsm at 4x1 plus two adaptive-policy cells, 100 passes: page-protocol traffic, so dsm twin/diff, hlrc fault/flush/barrier and the policy engine do the work",
		build: simBuilder(pagesCells), reference: simReference(pagesCells),
	},
	{
		name: "sync", passes: 180, gomaxprocs: one,
		why:   "five microbench directives x hybrid/kdsm at 8 nodes plus lockmix with lock caching, 180 passes: small-message synchronisation (mpi, hlrc locks, sim park/wake); page bytes negligible",
		build: simBuilder(syncCells), reference: simReference(syncCells),
	},
	{
		name: "tasks", passes: 600, gomaxprocs: one,
		why:   "quad/taskdep x hybrid/sdsm at 4x2 and 8x1, 600 passes: core tasking, dependence resolver, stealing and Target/WithMap; short cells, so cluster set-up/tear-down cost shows",
		build: simBuilder(tasksCells), reference: simReference(tasksCells),
	},
	{
		name: "scale", passes: 100, gomaxprocs: upTo4,
		why:   "weak-scaling compute+barrier program at 256 nodes with Lanes=GOMAXPROCS=min(nproc,4), 100 passes: the only workload on the lane kernel (windows, outbox merge, lane stall)",
		build: simBuilder(scaleCells), reference: simReference(scaleCells),
	},
	{
		name: "serve-cold", passes: 150, gomaxprocs: upTo4,
		why:   "14 never-seen drop-profile jobs per HTTP batch against an in-process service with a WAL, 1 closed-loop client, 150 passes: fleet write path, fsync, fault plane, legacy kernel at GOMAXPROCS above 1",
		build: func(e env) (instance, error) { return newServe(e, 0) }, reference: serveReference,
	},
	{
		name: "serve-hit", passes: 30000, gomaxprocs: upTo4,
		why: "re-POST one of 16 pre-warmed 14-job batches, 1 closed-loop client, 30000 passes: fleet read path (HTTP, JSONL decode, canonical string, cache get); no simulation runs",
		build: func(e env) (instance, error) {
			if e.quick {
				return newServe(e, 1)
			}
			return newServe(e, prewarmBatches)
		}, reference: serveReference,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// simCell is one simulation: a configuration and the kernel it runs.
type simCell struct {
	name string // <app>/<mode>/<nodes>x<threads>/<lanes>/<policy>
	cfg  core.Config
	run  func(core.Config) (string, sim.Duration, core.Report, error)
}

func cellName(app, mode string, cfg core.Config) string {
	policy := cfg.Policy
	if policy == hlrc.PolicyLegacy {
		policy = "legacy"
	}
	// Every lane count above one runs the identical event schedule, so
	// the name (and with it the golden) does not depend on the host's.
	lanes := strconv.Itoa(cfg.Lanes)
	if cfg.Lanes > 1 {
		lanes = "N"
	}
	return fmt.Sprintf("%s/%s/%dx%d/%s/%s", app, mode, cfg.Nodes, cfg.ThreadsPerNode, lanes, policy)
}

// matrixCell builds one acceptance-matrix cell the way the chaos and
// policy matrices do (harness.runChaosCell, harness.runPolicyCell).
func matrixCell(appName, mode string, nodes, threads int, policy string) (simCell, error) {
	app, err := harness.MatrixAppByName(appName)
	if err != nil {
		return simCell{}, err
	}
	cfg, err := harness.MatrixModeConfig(mode, nodes, threads)
	if err != nil {
		return simCell{}, err
	}
	if policy != "" {
		// MatrixModeConfig froze the directive threshold at the paper's
		// constant; clear it so the policy re-derives it.
		cfg.Policy = policy
		cfg.SmallThreshold = 0
		cfg = cfg.WithDefaults()
	}
	cfg.LockCaching = app.LockCaching
	return simCell{name: cellName(appName, mode, cfg), cfg: cfg, run: app.Run}, nil
}

func pagesCells(int) ([]simCell, error) {
	var cells []simCell
	for _, app := range []string{"cg", "helmholtz", "md"} {
		for _, mode := range harness.MatrixModes() {
			c, err := matrixCell(app, mode, 4, 1, "")
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	for _, app := range []string{"cg", "helmholtz"} {
		c, err := matrixCell(app, "sdsm", 4, 1, hlrc.PolicyAdaptive)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// microReps is the directive repetition count of a sync cell.
const microReps = 100

// syncCells leaves out lockmix x hybrid x 8 nodes x 2 threads/node with
// lock caching: it panics today (dsm: illegal transition INVALID ->
// DIRTY). One thread per node is the matrices' configuration and works.
func syncCells(int) ([]simCell, error) {
	var cells []simCell
	for _, directive := range []string{"critical", "single", "atomic", "reduction", "barrier"} {
		bench, err := microbench.ByName(directive)
		if err != nil {
			return nil, err
		}
		for _, mode := range []string{"hybrid", "kdsm"} {
			matrixMode := mode
			if mode == "kdsm" {
				matrixMode = "sdsm" // the sdsm matrix mode is the KDSM preset
			}
			cfg, err := harness.MatrixModeConfig(matrixMode, 8, 1)
			if err != nil {
				return nil, err
			}
			cells = append(cells, simCell{
				name: cellName(directive, mode, cfg), cfg: cfg,
				run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
					r, err := bench(cfg, microReps)
					return fmt.Sprintf("%016x", uint64(r.PerOp)), r.Report.Time, r.Report, err
				},
			})
		}
	}
	for _, mode := range harness.MatrixModes() {
		c, err := matrixCell("lockmix", mode, 8, 1, "")
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

func tasksCells(int) ([]simCell, error) {
	var cells []simCell
	for _, app := range []string{"quad", "taskdep"} {
		for _, mode := range harness.MatrixModes() {
			for _, shape := range [][2]int{{4, 2}, {8, 1}} {
				c, err := matrixCell(app, mode, shape[0], shape[1], "")
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// Weak-scaling program of cmd/parade-bench/scale.go.
const (
	scaleNodes   = 256
	scaleRounds  = 40
	scaleCompute = 150 * sim.Microsecond
)

func scaleCells(lanes int) ([]simCell, error) {
	cfg := core.Config{
		Nodes: scaleNodes, ThreadsPerNode: 1, CPUsPerNode: 2,
		HomeMigration: true, Lanes: lanes, Seed: 11,
	}.WithDefaults()
	return []simCell{{
		name: cellName("scale", "hybrid", cfg), cfg: cfg,
		run: func(cfg core.Config) (string, sim.Duration, core.Report, error) {
			rep, err := core.Run(cfg, func(m *core.Thread) {
				m.Parallel(func(tc *core.Thread) {
					for r := 0; r < scaleRounds; r++ {
						tc.Compute(scaleCompute)
						tc.Barrier()
					}
				})
			})
			return "-", rep.Time, rep, err
		},
	}}, nil
}

// simInstance runs a fixed list of simulation cells per pass, in an
// order the workload seed draws afresh for every pass: host time depends
// on the order (what the collector finds live when a cell starts), and
// redrawing it lets every run average over orders instead of measuring
// the one order its seed happened to pick.
type simInstance struct {
	cells  []simCell
	order  *rand.Rand
	gold   map[string]goldenCell
	traced bool
}

// simBuilder adapts a cell list to a workload's build function. The
// list is built for the pinned GOMAXPROCS (only scale uses it, as its
// lane count).
func simBuilder(list func(lanes int) ([]simCell, error)) func(env) (instance, error) {
	return func(e env) (instance, error) {
		cells, err := list(runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		return &simInstance{cells: cells, order: rand.New(rand.NewSource(e.seed)), gold: e.gold, traced: e.traced}, nil
	}
}

// simReference adapts a cell list to a workload's reference function.
func simReference(list func(lanes int) ([]simCell, error)) func() (map[string]goldenCell, error) {
	return func() (map[string]goldenCell, error) {
		cells, err := list(runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		ref := map[string]goldenCell{}
		for _, c := range cells {
			got, _, err := runCell(c, false)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", c.name, err)
			}
			ref[c.name] = got
		}
		return ref, nil
	}
}

// runCell runs one cell and returns what the goldens pin.
func runCell(c simCell, withObs bool) (goldenCell, core.Report, error) {
	cfg := c.cfg
	if withObs {
		cfg.Obs = obs.New(cfg.Nodes)
	}
	bits, virt, rep, err := c.run(cfg)
	if err != nil {
		return goldenCell{}, rep, err
	}
	return goldenCell{Bits: bits, MemHash: fmt.Sprintf("%016x", rep.MemHash), VirtNs: int64(virt)}, rep, nil
}

func (s *simInstance) pass(_ int, sc spanCtx) passResult {
	pr := passResult{}
	if s.traced {
		pr.counts = &layerCounts{}
	}
	s.order.Shuffle(len(s.cells), func(i, j int) { s.cells[i], s.cells[j] = s.cells[j], s.cells[i] })
	for _, c := range s.cells {
		span := sc.start("cell:" + c.name)
		got, rep, err := runCell(c, s.traced)
		span.end()
		pr.cells++
		pr.virtNs += got.VirtNs
		if pr.counts != nil {
			pr.counts.addReport(rep)
		}
		reason := ""
		if err != nil {
			reason = err.Error()
		} else {
			reason = s.gold[c.name].diff(got)
		}
		if reason != "" {
			pr.failed++
			if pr.firstFail == "" {
				pr.firstFail = c.name + ": " + reason
			}
		}
	}
	return pr
}

func (s *simInstance) close() error { return nil }

package harness

import (
	"fmt"
	"strconv"
	"strings"

	"parade/internal/core"
	"parade/internal/hlrc"
	"parade/internal/netsim"
	"parade/internal/sim"
	"parade/internal/stats"
)

// Cell is one scenario of the acceptance matrices: a value on every
// axis a run of a matrix kernel can vary along. The zero value of an
// optional axis is the matrices' default. The chaos, crash and policy
// matrices (matrix.go) and the fleet service's JobSpec all describe
// their runs as Cells, so Config is the one place the axes are lowered
// to a core.Config.
type Cell struct {
	App            string // matrix kernel, see MatrixAppNames
	Mode           string // "hybrid" or "sdsm", see MatrixModes
	Fabric         string // "via" (default) or "tcp"
	Nodes          int    // cluster size (default 4)
	ThreadsPerNode int    // computational threads per node (default 1)
	Lanes          int    // event-lane workers (0 = legacy kernel)
	Policy         string // hlrc protocol policy ("" = legacy)
	Profile        string // built-in fault profile ("" = ideal fabric)
	Seed           int64  // fault-plane seed (default 1)
	// Crash is the crash/restart schedule. Nil attaches no plan; an empty
	// non-nil slice attaches a plan with no events, which must be inert.
	Crash       []hlrc.CrashEvent
	Hetero      string // netsim.HeteroByName profile ("" = uniform)
	LockCaching bool   // lazy-release lock tokens; kernels marked LockCaching always run with them
}

// MatrixRun is one executed Cell with its observables.
type MatrixRun struct {
	Cell      Cell
	Result    string // result-bits fingerprint
	MemHash   uint64 // final DSM state fingerprint
	Kernel    sim.Duration
	Time      sim.Duration // full-run virtual time
	Slowdown  float64      // kernel time / the baseline cell's (set by RunMatrix)
	Threshold int          // the directive threshold the run used
	Counters  stats.Counters
	Err       string // run error, if any
}

// Config lowers the cell to the cluster configuration its run executes.
// The directive threshold is derived after fabric and policy are set, so
// an adaptive cell gets the threshold of its own fabric and cost model.
func (c Cell) Config() (core.Config, error) {
	app, err := MatrixAppByName(c.App)
	if err != nil {
		return core.Config{}, err
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Fabric == "" {
		c.Fabric = "via"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	cfg, err := MatrixModeConfig(c.Mode, c.Nodes, c.ThreadsPerNode)
	if err != nil {
		return core.Config{}, err
	}
	if cfg.Fabric, err = netsim.FabricByName(c.Fabric); err != nil {
		return core.Config{}, err
	}
	cfg.Lanes = c.Lanes
	cfg.Policy = c.Policy
	// MatrixModeConfig applied defaults, which froze the threshold at the
	// paper's constant for the default fabric; derive it again.
	cfg.SmallThreshold = 0
	cfg = cfg.WithDefaults()
	cfg.LockCaching = c.LockCaching || app.LockCaching
	if c.Profile != "" {
		prof, err := netsim.ProfileByName(c.Profile, c.Seed)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Faults = &prof
	}
	if c.Crash != nil {
		cfg.Crash = &hlrc.CrashPlan{Events: c.Crash}
	}
	if cfg.Hetero, err = netsim.HeteroByName(c.Hetero, c.Nodes); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run executes the cell's kernel and collects its observables.
func (c Cell) Run() (MatrixRun, error) {
	run := MatrixRun{Cell: c}
	app, err := MatrixAppByName(c.App)
	if err != nil {
		return run, err
	}
	cfg, err := c.Config()
	if err != nil {
		return run, err
	}
	run.Threshold = cfg.SmallThreshold
	var report core.Report
	run.Result, run.Kernel, report, err = app.Run(cfg)
	run.Time, run.MemHash, run.Counters = report.Time, report.MemHash, report.Counters
	return run, err
}

// String names the cell by its non-default axes, for failure messages.
func (c Cell) String() string {
	s := c.App + "/" + c.Mode
	if c.Fabric != "" {
		s += "/" + c.Fabric
	}
	if c.Policy != "" {
		s += " policy " + c.Policy
	}
	if c.Profile != "" {
		s += " under " + c.Profile
	}
	if c.Crash != nil {
		s += " crash " + FormatCrash(c.Crash)
	}
	return s
}

// FaultProfiles lists the built-in fault profiles in canonical order:
// the chaos matrix's varied axis.
func FaultProfiles() []string {
	profs := netsim.Profiles(1)
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return names
}

// CrashSchedules returns the crash matrix's varied axis for a cluster
// of the given size. Every event restarts (the full runtime cannot
// shrink — see core.Validate); shrink recovery is covered by the
// engine-level tests.
func CrashSchedules(nodes int) [][]hlrc.CrashEvent {
	ev := func(node, barrier int) hlrc.CrashEvent {
		return hlrc.CrashEvent{Node: node, Barrier: barrier, Restart: true}
	}
	return [][]hlrc.CrashEvent{
		{ev(1, 1)},
		{ev(nodes-1, 2)},
		{ev(1, 1), ev(1, 3)},
	}
}

// ParseCrash parses a crash schedule in node@barrier[,node@barrier...]
// syntax, e.g. "1@2" or "1@1,1@3". Every event restarts. An empty spec
// yields no events.
func ParseCrash(spec string) ([]hlrc.CrashEvent, error) {
	var events []hlrc.CrashEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nodeStr, barStr, ok := strings.Cut(part, "@")
		node, err1 := strconv.Atoi(nodeStr)
		barrier, err2 := strconv.Atoi(barStr)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad crash event %q (want node@barrier, e.g. 1@2)", part)
		}
		events = append(events, hlrc.CrashEvent{Node: node, Barrier: barrier, Restart: true})
	}
	return events, nil
}

// FormatCrash is the inverse of ParseCrash: the canonical text of a
// schedule, events joined with single commas.
func FormatCrash(events []hlrc.CrashEvent) string {
	parts := make([]string, len(events))
	for i, ev := range events {
		parts[i] = fmt.Sprintf("%d@%d", ev.Node, ev.Barrier)
	}
	return strings.Join(parts, ",")
}

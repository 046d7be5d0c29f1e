package harness

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"parade/internal/core"
	"parade/internal/hlrc"
	"parade/internal/netsim"
	"parade/internal/sim"
)

// Cell is one scenario: a value on every axis a run of a kernel can vary
// along. It is the only declaration of a scenario in the repo — the
// chaos, crash and policy matrices (matrix.go) enumerate Cells, every
// point of the paper's figures (harness.go) is a Cell, and a Cell is the
// fleet service's job spec on the wire (fleet.JobSpec is an alias;
// SERVING.md documents the JSON keys). Every decision about a
// cell is one method here: Normalize fills the defaults, Validate checks
// names and ranges, BuildConfig lowers it to a core.Config, Canonical and
// Fingerprint are its identity. The zero value of an optional axis
// selects the default noted on it.
//
// ID and DeadlineMS are the envelope: execution control that rides with
// the cell but takes part in neither its identity nor its lowering.
// Lanes is a retired key that only Validate reads. Every other field must
// change both identity and lowering (TestCellIdentityIsComplete).
type Cell struct {
	// ID is an optional client handle echoed verbatim on the result line.
	ID string `json:"id,omitempty"`
	// App names the kernel: a matrix kernel (helmholtz, ep, cg, md, quad,
	// taskdep or lockmix; MatrixAppNames) or a directive microbenchmark
	// (critical, single, atomic, reduction, barrier, for or parallel).
	App string `json:"app"`
	// Mode is the directive-execution mode: "hybrid" (the ParADE model) or
	// "sdsm" (the conventional KDSM baseline).
	Mode string `json:"mode"`
	// Fabric is the interconnect preset: "via" (default) or "tcp".
	Fabric string `json:"fabric,omitempty"`
	// Nodes is the cluster size (default 4).
	Nodes int `json:"nodes,omitempty"`
	// ThreadsPerNode is the computational thread count per node (default 1).
	ThreadsPerNode int `json:"threads_per_node,omitempty"`
	// CPUsPerNode is the processor count per node (default 2): the paper's
	// 1Thread-1CPU configuration is 1, its 1Thread-2CPU and 2Thread-2CPU
	// the default.
	CPUsPerNode int `json:"cpus_per_node,omitempty"`
	// Scale picks the kernel's problem size (MatrixApp.Sizes): empty is
	// the matrix size, "bench" the bench size of every matrix kernel,
	// "paper" the paper's size of cg, ep, helmholtz and md, and "S", "W"
	// or "A" an NPB class of cg and ep.
	Scale string `json:"scale,omitempty"`
	// Lanes is the retired event-lane count, read only to reject it: it
	// must be 0 or absent, so a request that asks for lanes is answered
	// invalid rather than run on the one event kernel.
	Lanes int `json:"lanes,omitempty"`
	// Seed drives the fault plane (default 1). The simulation's own seed
	// stays at the configuration default so fault-free runs are comparable
	// across seeds.
	Seed int64 `json:"seed,omitempty"`
	// FaultProfile names a built-in netsim profile (drop, dup, reorder,
	// straggler, chaos); empty runs the ideal fabric.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Crash is a deterministic crash schedule as text: comma-separated
	// node@barrier events, e.g. "1@1" or "1@1,1@3" (FormatCrash writes it,
	// BuildConfig parses it). Every crashed node restarts from its buddy
	// checkpoint. Empty attaches no crash plan.
	Crash string `json:"crash,omitempty"`
	// LockCaching enables lazy-release lock tokens. Kernels marked
	// LockCaching in the app table (lockmix) always run with them.
	LockCaching bool `json:"lock_caching,omitempty"`
	// Policy selects the hlrc protocol policy: "" (legacy, the default),
	// "invalidate", "update", or "adaptive" (per-page online
	// classification; also derives the directive threshold from the
	// fabric).
	Policy string `json:"policy,omitempty"`
	// Hetero names a heterogeneous cluster profile (netsim.HeteroByName):
	// "uniform" (or empty, the default), "fasthalf", or "slow1". taskdep
	// always runs on "fasthalf", so it accepts no other profile.
	Hetero string `json:"hetero,omitempty"`
	// DeadlineMS, when positive, bounds the job's host wall-clock execution
	// time in milliseconds when the cell runs as a fleet job: a run over
	// budget is cooperatively canceled by the simulation kernel. A cell
	// that completed under any deadline is the same cell.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// FieldError locates one invalid field of a Cell by its JSON key.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// CellError is the typed validation error for a Cell, with one entry per
// invalid field (errors.As-matchable).
type CellError struct {
	Fields []FieldError
}

func (e *CellError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Reason
	}
	return "harness: invalid cell: " + strings.Join(parts, "; ")
}

// Normalize returns the cell with its defaults filled in: the form that
// validation, identity and lowering all see. It is the only place a
// scenario default is written.
func (c Cell) Normalize() Cell {
	if c.Fabric == "" {
		c.Fabric = "via"
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.ThreadsPerNode == 0 {
		c.ThreadsPerNode = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if app, err := MatrixAppByName(c.App); err == nil && app.LockCaching {
		c.LockCaching = true
	}
	if c.Hetero == "uniform" {
		c.Hetero = "" // the explicit name for the default machine
	}
	if c.CPUsPerNode == 2 {
		c.CPUsPerNode = 0 // the explicit value of the default
	}
	// Canonical crash text: events trimmed, empty ones dropped, joined with
	// single commas. Only whitespace is rewritten — the events themselves
	// are parsed by the lowering, which reports malformed ones.
	if c.Crash != "" {
		events := strings.Split(c.Crash, ",")
		kept := events[:0]
		for _, ev := range events {
			if ev = strings.TrimSpace(ev); ev != "" {
				kept = append(kept, ev)
			}
		}
		c.Crash = strings.Join(kept, ",")
	}
	return c
}

// lower checks a normalized cell and lowers it to the cluster
// configuration its run executes. It is the only place a name is
// resolved, a range checked or a crash schedule parsed, so a cell is
// valid exactly when it lowers; each failure is reported against the
// field's JSON key with the resolver's own message. The directive
// threshold is derived after fabric and policy are set, so an adaptive
// cell gets the threshold of its own fabric and cost model.
func (c Cell) lower() (core.Config, []FieldError) {
	var bad []FieldError
	fail := func(field string, err error) {
		bad = append(bad, FieldError{Field: field, Reason: err.Error()})
	}
	app, err := MatrixAppByName(c.App)
	if c.App == "" {
		fail("app", fmt.Errorf("required (valid: %s)", strings.Join(MatrixAppNames(), ", ")))
	} else if err != nil {
		fail("app", err)
	} else if _, err := app.Problem(c.Scale); err != nil {
		fail("scale", err)
	}
	cfg, err := MatrixModeConfig(c.Mode, c.Nodes, c.ThreadsPerNode)
	if c.Mode == "" {
		fail("mode", fmt.Errorf("required (valid: %s)", strings.Join(MatrixModes(), ", ")))
	} else if err != nil {
		fail("mode", err)
	}
	if cfg.Fabric, err = netsim.FabricByName(c.Fabric); err != nil {
		fail("fabric", err)
	}
	if c.Nodes < 1 {
		fail("nodes", fmt.Errorf("must be >= 1, got %d", c.Nodes))
	}
	if c.ThreadsPerNode < 1 {
		fail("threads_per_node", fmt.Errorf("must be >= 1, got %d", c.ThreadsPerNode))
	}
	if c.CPUsPerNode < 0 {
		fail("cpus_per_node", fmt.Errorf("must be >= 1, got %d", c.CPUsPerNode))
	} else if c.CPUsPerNode > 0 {
		cfg.CPUsPerNode = c.CPUsPerNode
	}
	if c.Lanes != 0 {
		fail("lanes", fmt.Errorf("must be 0 or absent (the event-lane kernel was removed), got %d", c.Lanes))
	}
	if c.Seed < 0 {
		fail("seed", fmt.Errorf("must be positive, got %d", c.Seed))
	}
	if c.FaultProfile != "" {
		if prof, err := netsim.ProfileByName(c.FaultProfile, c.Seed); err != nil {
			fail("fault_profile", err)
		} else {
			cfg.Faults = &prof
		}
	}
	if !hlrc.ValidPolicy(c.Policy) {
		fail("policy", fmt.Errorf("unknown policy %q (valid: %s, or empty for legacy)",
			c.Policy, strings.Join(hlrc.PolicyNames()[1:], ", ")))
	}
	if c.DeadlineMS < 0 {
		fail("deadline_ms", fmt.Errorf("must be >= 0 (0 disables the job deadline), got %d", c.DeadlineMS))
	}
	// The node count sizes the hetero profile and bounds the crash
	// schedule; a bad count is already reported above.
	if c.Nodes >= 1 {
		if cfg.Hetero, err = netsim.HeteroByName(c.Hetero, c.Nodes); err != nil {
			fail("hetero", err)
		} else if app.Hetero != "" && c.Hetero != "" && c.Hetero != app.Hetero {
			fail("hetero", fmt.Errorf("app %q always runs on the %q machine, got %q", c.App, app.Hetero, c.Hetero))
		}
	}
	if c.Crash != "" {
		events, err := ParseCrash(c.Crash)
		cfg.Crash = &hlrc.CrashPlan{Events: events}
		if err == nil && c.Nodes >= 1 {
			err = cfg.Crash.Validate(c.Nodes)
		}
		if err != nil {
			fail("crash", err)
		}
	}
	if bad != nil {
		return core.Config{}, bad
	}
	cfg.Policy = c.Policy
	// MatrixModeConfig applied defaults, which froze the threshold at the
	// paper's constant for the default fabric; derive it again.
	cfg.SmallThreshold = 0
	cfg = cfg.WithDefaults()
	cfg.LockCaching = c.LockCaching
	return cfg, nil
}

// BuildConfig lowers the cell to the cluster configuration its run
// executes — the one lowering the acceptance matrices and the fleet
// service share. The error is a *CellError with one entry per invalid
// field.
func (c Cell) BuildConfig() (core.Config, error) {
	cfg, bad := c.Normalize().lower()
	if bad != nil {
		return cfg, &CellError{Fields: bad}
	}
	return cfg, nil
}

// Validate checks the cell's names and ranges: a cell is valid exactly
// when it lowers, so the error is BuildConfig's.
func (c Cell) Validate() error {
	_, err := c.BuildConfig()
	return err
}

// canonical is Canonical for a normalized cell.
func (c Cell) canonical() string {
	// lanes=0 is a literal: it keeps every fingerprint written before the
	// event-lane kernel was removed.
	s := fmt.Sprintf(
		"parade-fleet/v1 app=%s mode=%s fabric=%s nodes=%d threads=%d lanes=0 seed=%d lockcache=%t faults=%s crash=%s policy=%s",
		c.App, c.Mode, c.Fabric, c.Nodes, c.ThreadsPerNode,
		c.Seed, c.LockCaching, c.FaultProfile, c.Crash, c.Policy)
	// The later axes are appended only when set, so fingerprints written
	// before they existed (and cached results keyed by them) stay valid
	// for the default.
	if c.Hetero != "" {
		s += " hetero=" + c.Hetero
	}
	if c.CPUsPerNode != 0 {
		s += " cpus=" + strconv.Itoa(c.CPUsPerNode)
	}
	if c.Scale != "" {
		s += " scale=" + c.Scale
	}
	return s
}

// Canonical returns the cell's identity string: the normalized fields in
// fixed order. Equal canonical strings mean equal lowered
// configurations; the fleet's cache and WAL are keyed by the string's
// fingerprint and compare the full string on every hit, so a 64-bit hash
// collision can never alias two cells.
func (c Cell) Canonical() string { return c.Normalize().canonical() }

// fingerprint is the FNV-1a hash of a canonical string.
func fingerprint(canon string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canon))
	return h.Sum64()
}

// Fingerprint returns the 64-bit FNV-1a hash of Canonical(): the key of
// the fleet's result cache and WAL.
func (c Cell) Fingerprint() uint64 { return fingerprint(c.Canonical()) }

// FingerprintHex is Fingerprint formatted as fixed-width hex (the form
// results and logs carry).
func (c Cell) FingerprintHex() string { return fmt.Sprintf("%016x", c.Fingerprint()) }

// Lowered is a Cell taken across every decision exactly once, for a
// caller — the fleet service — that needs all the answers: it carries
// one from the request line to the cache, the WAL and the executor.
type Lowered struct {
	Cell        Cell        // normalized
	Canonical   string      // Cell.Canonical()
	Fingerprint uint64      // Cell.Fingerprint()
	Config      core.Config // Cell.BuildConfig(); zero when Invalid is set
	// Invalid holds the fields Validate rejects; nil for a valid cell.
	Invalid []FieldError
}

// Lower normalizes the cell once and derives its identity, validation
// verdict and lowered configuration from that one normal form.
func (c Cell) Lower() *Lowered {
	l := &Lowered{Cell: c.Normalize()}
	l.Canonical = l.Cell.canonical()
	l.Fingerprint = fingerprint(l.Canonical)
	l.Config, l.Invalid = l.Cell.lower()
	return l
}

// MatrixRun is one executed Cell with its observables: the run's
// core.Report (virtual time, counters, final DSM state fingerprint, …)
// and what the cell runner and the matrices add to it.
type MatrixRun struct {
	core.Report
	Cell      Cell
	Result    string // result-bits fingerprint
	Kernel    sim.Duration
	Slowdown  float64 // kernel time / the baseline cell's (set by RunMatrix)
	Threshold int     // the directive threshold the run used
	Scheduled int     // crash events in the plan the run was armed with
	Err       string  // run error, if any
}

// Run lowers the cell, executes its kernel and collects the observables.
func (c Cell) Run() (MatrixRun, error) {
	cfg, err := c.BuildConfig()
	if err != nil {
		return MatrixRun{Cell: c}, err
	}
	return c.RunWith(cfg)
}

// RunWith executes the cell's kernel, at the cell's scale, under cfg: the
// cell's lowered configuration, with execution control attached by the
// caller (an obs recorder, a deadline) or, for the crash matrix's
// inertness check, an empty crash plan. It is the one cell runner the
// matrices, the figures and the fleet executor share. The run's times
// and counters are filled in even when it fails, so a canceled run
// reports the virtual time it reached.
func (c Cell) RunWith(cfg core.Config) (MatrixRun, error) {
	run := MatrixRun{Cell: c, Threshold: cfg.SmallThreshold}
	if cfg.Crash != nil {
		run.Scheduled = len(cfg.Crash.Events)
	}
	app, err := MatrixAppByName(c.App)
	if err != nil {
		return run, err
	}
	prob, err := app.Problem(c.Scale)
	if err != nil {
		return run, err
	}
	run.Result, run.Kernel, run.Report, err = prob.Run(cfg)
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
	if c.FaultProfile != "" {
		s += " under " + c.FaultProfile
	}
	if c.Crash != "" {
		s += " crash " + c.Crash
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
// of the given size.
func CrashSchedules(nodes int) [][]hlrc.CrashEvent {
	ev := func(node, barrier int) hlrc.CrashEvent {
		return hlrc.CrashEvent{Node: node, Barrier: barrier}
	}
	return [][]hlrc.CrashEvent{
		{ev(1, 1)},
		{ev(nodes-1, 2)},
		{ev(1, 1), ev(1, 3)},
	}
}

// ParseCrash parses a crash schedule in node@barrier[,node@barrier...]
// syntax, e.g. "1@2" or "1@1,1@3". An empty spec yields no events.
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
		events = append(events, hlrc.CrashEvent{Node: node, Barrier: barrier})
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

// Package fleet is the long-running sweep service behind parade-serve:
// batches of simulation jobs (a scenario matrix of app × mode × fabric ×
// fault profile × crash schedule × node count × lanes) arrive over
// HTTP/JSONL, are validated into typed JobSpecs, deduplicated by a
// canonical config fingerprint against an LRU result cache, and executed
// on a bounded worker pool with work-stealing admission. Results stream
// back as JSONL; service health and throughput are exported on a
// Prometheus-style /metrics endpoint wired to internal/obs.
//
// The dedupe cache leans on the determinism the rest of the repo
// enforces: a run is a pure function of its configuration (bit-identical
// at any lane count, GOMAXPROCS, fault interleaving, or host schedule —
// DESIGN.md §6h), so two jobs whose canonical configurations are equal
// provably have equal results, and a cache hit can return the stored
// report without re-execution. See SERVING.md for the serving surface.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"parade/internal/core"
	"parade/internal/harness"
	"parade/internal/hlrc"
	"parade/internal/netsim"
)

// JobSpec is one simulation job as submitted by a client: a cell of the
// scenario matrix. The zero values of the optional fields select the
// acceptance matrices' defaults (4 nodes, 1 thread per node, the VIA
// fabric, seed 1, no faults, no crashes, legacy kernel).
type JobSpec struct {
	// ID is an optional client handle echoed verbatim on the result line.
	// It does not participate in the config fingerprint.
	ID string `json:"id,omitempty"`
	// App names the kernel: helmholtz, ep, cg, md, quad, or lockmix.
	App string `json:"app"`
	// Mode is the directive-execution mode: "hybrid" (the ParADE model)
	// or "sdsm" (the conventional KDSM baseline).
	Mode string `json:"mode"`
	// Fabric is the interconnect preset: "via" (default) or "tcp".
	Fabric string `json:"fabric,omitempty"`
	// Nodes is the cluster size (default 4).
	Nodes int `json:"nodes,omitempty"`
	// ThreadsPerNode is the computational thread count per node
	// (default 1, the matrices' configuration).
	ThreadsPerNode int `json:"threads_per_node,omitempty"`
	// Lanes selects the parallel simulation kernel: 0 (default) is the
	// legacy single-loop kernel, N > 0 runs per-node event lanes with at
	// most N lane workers. Any N > 0 produces bit-identical results, so
	// the config fingerprint collapses all positive values.
	Lanes int `json:"lanes,omitempty"`
	// Seed drives the fault plane (default 1). It mirrors the chaos
	// matrix's seed knob: the simulation's own seed stays at the
	// configuration default so fault-free runs are comparable across
	// seeds.
	Seed int64 `json:"seed,omitempty"`
	// FaultProfile names a built-in netsim profile (drop, dup, reorder,
	// straggler, chaos); empty runs the ideal fabric.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Crash is a deterministic crash schedule in parade-run syntax:
	// comma-separated node@barrier events, e.g. "1@1" or "1@1,1@3".
	// Every event restarts (the full runtime cannot shrink).
	Crash string `json:"crash,omitempty"`
	// LockCaching enables lazy-release lock tokens. The lockmix kernel
	// always runs with them (the matrices' configuration) regardless of
	// this field.
	LockCaching bool `json:"lock_caching,omitempty"`
	// Policy selects the hlrc protocol policy: "" (legacy, the default),
	// "invalidate", "update", or "adaptive" (per-page online
	// classification; also derives the directive threshold from the
	// fabric). The policy sweep submits one job per policy per cell.
	Policy string `json:"policy,omitempty"`
	// Hetero names a heterogeneous cluster profile (netsim.HeteroByName):
	// "uniform" (or empty, the default), "fasthalf", or "slow1". The
	// profile is part of the machine description and participates in the
	// config fingerprint.
	Hetero string `json:"hetero,omitempty"`
	// DeadlineMS, when positive, bounds the job's host wall-clock
	// execution time in milliseconds: a run over budget is cooperatively
	// canceled by the simulation kernel and returns a typed canceled
	// result (StatusCanceled) instead of hanging a worker. The server's
	// own -job-deadline watchdog, when set, caps this further. Execution
	// control, not simulation identity: it does not participate in
	// Canonical() or the config fingerprint — a cell that completed
	// under any deadline is the same cell.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// FieldError locates one invalid field of a JobSpec.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// JobSpecError is the typed validation error for a malformed JobSpec,
// with field-level detail (errors.As-matchable, mirroring
// core.LaneConfigError).
type JobSpecError struct {
	// Index is the zero-based line number of the spec within its batch
	// (-1 outside a batch context).
	Index  int
	Fields []FieldError
}

func (e *JobSpecError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: invalid job spec")
	if e.Index >= 0 {
		fmt.Fprintf(&b, " (line %d)", e.Index)
	}
	for i, f := range e.Fields {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", f.Field, f.Reason)
	}
	return b.String()
}

// Normalize returns the spec with defaulted fields filled in: the
// canonical form that validation, fingerprinting, and execution all see.
func (s JobSpec) Normalize() JobSpec {
	if s.Fabric == "" {
		s.Fabric = "via"
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.ThreadsPerNode == 0 {
		s.ThreadsPerNode = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if app, err := harness.MatrixAppByName(s.App); err == nil && app.LockCaching {
		s.LockCaching = true
	}
	if s.Hetero == "uniform" {
		s.Hetero = "" // the explicit name for the default machine
	}
	// Canonical crash text: events trimmed and joined with single commas.
	// An unparseable spec stays verbatim so validation can report it.
	if events, err := harness.ParseCrash(s.Crash); err == nil && len(events) > 0 {
		s.Crash = harness.FormatCrash(events)
	} else {
		s.Crash = strings.TrimSpace(s.Crash)
	}
	return s
}

// Validate checks the normalized spec and returns nil or a
// *JobSpecError with one entry per invalid field.
func (s JobSpec) Validate() error {
	s = s.Normalize()
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if s.App == "" {
		add("app", "required (valid: %s)", strings.Join(harness.MatrixAppNames(), ", "))
	} else if _, err := harness.MatrixAppByName(s.App); err != nil {
		add("app", "unknown app %q (valid: %s)", s.App, strings.Join(harness.MatrixAppNames(), ", "))
	}
	switch s.Mode {
	case "":
		add("mode", "required (valid: %s)", strings.Join(harness.MatrixModes(), ", "))
	case "hybrid", "sdsm":
	default:
		add("mode", "unknown mode %q (valid: %s)", s.Mode, strings.Join(harness.MatrixModes(), ", "))
	}
	if _, err := netsim.FabricByName(s.Fabric); err != nil {
		add("fabric", "unknown fabric %q (valid: via, tcp)", s.Fabric)
	}
	if s.Nodes < 1 {
		add("nodes", "must be >= 1, got %d", s.Nodes)
	}
	if s.ThreadsPerNode < 1 {
		add("threads_per_node", "must be >= 1, got %d", s.ThreadsPerNode)
	}
	if s.Lanes < 0 {
		add("lanes", "must be >= 0 (0 disables event lanes), got %d", s.Lanes)
	}
	if s.Seed < 0 {
		add("seed", "must be positive, got %d", s.Seed)
	}
	if s.FaultProfile != "" {
		if _, err := netsim.ProfileByName(s.FaultProfile, s.Seed); err != nil {
			add("fault_profile", "unknown fault profile %q (valid: %s)",
				s.FaultProfile, strings.Join(harness.FaultProfiles(), ", "))
		}
	}
	if !hlrc.ValidPolicy(s.Policy) {
		add("policy", "unknown policy %q (valid: %s, or empty for legacy)",
			s.Policy, strings.Join(hlrc.PolicyNames()[1:], ", "))
	}
	if s.DeadlineMS < 0 {
		add("deadline_ms", "must be >= 0 (0 disables the job deadline), got %d", s.DeadlineMS)
	}
	if s.Nodes >= 1 {
		if _, err := netsim.HeteroByName(s.Hetero, s.Nodes); err != nil {
			add("hetero", "unknown hetero profile %q (valid: uniform, fasthalf, slow1, or empty)", s.Hetero)
		}
	}
	if events, err := harness.ParseCrash(s.Crash); err != nil {
		add("crash", "%v", err)
	} else if len(events) > 0 {
		if s.Nodes >= 1 {
			plan := &hlrc.CrashPlan{Events: events}
			if err := plan.Validate(s.Nodes); err != nil {
				add("crash", "%v", err)
			}
		}
	}
	if fields == nil {
		return nil
	}
	return &JobSpecError{Index: -1, Fields: fields}
}

// Canonical returns the canonical identity string of the spec: the
// normalized fields in fixed order, with the lane count collapsed to its
// regime (legacy vs event lanes — every positive lane count executes the
// identical event schedule, DESIGN.md §6h, so jobs differing only in
// worker count are the same simulation). Two specs are the same job if
// and only if their canonical strings are equal; the FNV fingerprint
// below indexes this string, and the cache compares the full string on
// every hit so a 64-bit hash collision can never alias two jobs.
func (s JobSpec) Canonical() string {
	s = s.Normalize()
	laneRegime := 0
	if s.Lanes > 0 {
		laneRegime = 1
	}
	c := fmt.Sprintf(
		"parade-fleet/v1 app=%s mode=%s fabric=%s nodes=%d threads=%d lanes=%d seed=%d lockcache=%t faults=%s crash=%s policy=%s",
		s.App, s.Mode, s.Fabric, s.Nodes, s.ThreadsPerNode, laneRegime,
		s.Seed, s.LockCaching, s.FaultProfile, s.Crash, s.Policy)
	if s.Hetero != "" {
		// Appended only when set, so pre-hetero fingerprints (and cached
		// results keyed by them) stay valid for the uniform cluster.
		c += " hetero=" + s.Hetero
	}
	return c
}

// Fingerprint returns the canonical FNV-1a config fingerprint: the
// 64-bit hash of Canonical(). It is the dedupe key of the result cache.
func (s JobSpec) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Canonical()))
	return h.Sum64()
}

// FingerprintHex is Fingerprint formatted as fixed-width hex (the form
// results and logs carry).
func (s JobSpec) FingerprintHex() string {
	return fmt.Sprintf("%016x", s.Fingerprint())
}

// BuildConfig lowers the validated spec into the cluster configuration
// its run executes: the spec is a harness.Cell, lowered the one way every
// acceptance matrix lowers its cells.
func (s JobSpec) BuildConfig() (core.Config, error) {
	s = s.Normalize()
	events, err := harness.ParseCrash(s.Crash)
	if err != nil {
		return core.Config{}, err
	}
	return harness.Cell{
		App: s.App, Mode: s.Mode, Fabric: s.Fabric, Nodes: s.Nodes, ThreadsPerNode: s.ThreadsPerNode,
		Lanes: s.Lanes, Policy: s.Policy, Profile: s.FaultProfile, Seed: s.Seed,
		Crash: events, Hetero: s.Hetero, LockCaching: s.LockCaching,
	}.Config()
}

// SpecMatrix expands a scenario matrix into the cross product of its
// dimensions, in canonical order. Empty dimensions select the defaults
// noted on each field.
type SpecMatrix struct {
	Apps     []string // default: all matrix apps
	Modes    []string // default: hybrid, sdsm
	Fabrics  []string // default: via
	Profiles []string // default: "" (ideal fabric) only
	Crashes  []string // default: "" (no crashes) only
	Nodes    []int    // default: 4
	Lanes    []int    // default: 0
	Policies []string // default: "" (legacy) only
	Seed     int64    // default: 1
}

// Expand returns the job specs of the matrix's cross product.
func (m SpecMatrix) Expand() []JobSpec {
	apps := m.Apps
	if len(apps) == 0 {
		apps = harness.MatrixAppNames()
	}
	modes := m.Modes
	if len(modes) == 0 {
		modes = harness.MatrixModes()
	}
	orDefault := func(vals []string) []string {
		if len(vals) == 0 {
			return []string{""}
		}
		return vals
	}
	fabrics := m.Fabrics
	if len(fabrics) == 0 {
		fabrics = []string{"via"}
	}
	profiles := orDefault(m.Profiles)
	crashes := orDefault(m.Crashes)
	nodes := m.Nodes
	if len(nodes) == 0 {
		nodes = []int{4}
	}
	lanes := m.Lanes
	if len(lanes) == 0 {
		lanes = []int{0}
	}
	policies := orDefault(m.Policies)
	var specs []JobSpec
	for _, app := range apps {
		for _, mode := range modes {
			for _, fabric := range fabrics {
				for _, prof := range profiles {
					for _, crash := range crashes {
						if prof != "" && crash != "" {
							// The acceptance matrices exercise link faults and
							// crash-stop failures separately; mirror that.
							continue
						}
						for _, n := range nodes {
							for _, l := range lanes {
								for _, pol := range policies {
									specs = append(specs, JobSpec{
										App: app, Mode: mode, Fabric: fabric,
										FaultProfile: prof, Crash: crash,
										Nodes: n, Lanes: l, Seed: m.Seed,
										Policy: pol,
									}.Normalize())
								}
							}
						}
					}
				}
			}
		}
	}
	sort.SliceStable(specs, func(i, j int) bool {
		return specs[i].Canonical() < specs[j].Canonical()
	})
	return specs
}

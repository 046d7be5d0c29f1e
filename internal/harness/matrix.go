package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"parade/internal/hlrc"
	"parade/internal/netsim"
)

// The acceptance matrices assert the determinism contract over the
// scenario axes of a Cell. One engine, RunMatrix, enumerates app × mode
// × fabric groups, runs each group's baseline cell once and then its
// variants, applies the matrix's invariants, and renders. A matrix is a
// declaration: which axis varies, which cell is the baseline, which
// invariants hold, which counters are columns. DESIGN.md "Acceptance
// matrices" has the invariants table.

// MatrixOptions selects the cells of a matrix. An empty axis selection
// takes the matrix's default; selecting an axis the matrix does not
// have is an error.
type MatrixOptions struct {
	Nodes    int      // cluster size (default 4)
	Seed     int64    // fault-plane seed (chaos; default 1)
	Apps     []string // subset of MatrixAppNames
	Modes    []string // subset of MatrixModes (policy)
	Fabrics  []string // subset of via, tcp (policy)
	Profiles []string // subset of FaultProfiles (chaos)
	// Policies is, for chaos and crash, the one hlrc policy every cell
	// runs under (default legacy); for policy, the set compared (default
	// hlrc.PolicyNames).
	Policies []string
}

// MatrixReport is the outcome of one matrix.
type MatrixReport struct {
	Matrix   string
	Options  MatrixOptions // the resolved selection
	Runs     []MatrixRun
	Skipped  []string // crash schedules dropped because the app has too few barriers
	Wins     []string // policy cells where adaptive strictly beat every fixed policy
	Failures []string
}

// OK reports whether every invariant held.
func (r MatrixReport) OK() bool { return len(r.Failures) == 0 }

func (r *MatrixReport) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// sameState asserts the invariant every matrix shares: a variant cell
// computes the reference cell's result bits and final DSM state.
func (r *MatrixReport) sameState(run, ref MatrixRun) {
	if run.Result != ref.Result {
		r.failf("%s: result bits diverged from %s", run.Cell, ref.Cell)
	}
	if run.MemHash != ref.MemHash {
		r.failf("%s: final DSM state diverged from %s", run.Cell, ref.Cell)
	}
}

// column is one per-run value a matrix reports: a table heading, a JSONL
// key, and the accessor.
type column struct {
	head, key string
	get       func(MatrixRun) int64
}

// matrix declares one acceptance matrix.
type matrix struct {
	title    string
	axes     []string // selections accepted besides nodes and apps
	fabrics  []string // default fabric selection
	minNodes int
	vary     string            // heading of the varied-axis column
	label    func(Cell) string // a cell's value on the varied axis
	// cells returns one group's cells, the baseline first. base carries
	// the group's app, mode and fabric and the selection's scalars.
	cells func(o MatrixOptions, base Cell) []Cell
	// check applies the per-cell and per-group invariants to a group's
	// baseline and its variant runs that completed.
	check   func(rep *MatrixReport, base MatrixRun, runs []MatrixRun)
	finish  func(rep *MatrixReport) // per-matrix invariants
	columns []column
	verdict string
}

var matrices = map[string]*matrix{
	// Graceful degradation under link faults: every faulted run equals
	// the fault-free run of the same configuration except in virtual
	// time, and every profile exercises the recovery path.
	"chaos": {
		title: "chaos matrix", axes: []string{"profiles", "seed", "policy"},
		fabrics: []string{"via"}, vary: "profile",
		label: func(c Cell) string { return c.FaultProfile },
		cells: func(o MatrixOptions, base Cell) []Cell {
			cells := []Cell{base}
			for _, p := range o.Profiles {
				c := base
				c.FaultProfile = p
				cells = append(cells, c)
			}
			return cells
		},
		check: func(rep *MatrixReport, base MatrixRun, runs []MatrixRun) {
			if c := base.Counters; c.Retransmits != 0 || c.InjectedDrops != 0 {
				rep.failf("%s baseline: %d retransmits, %d drops on the ideal fabric",
					base.Cell, c.Retransmits, c.InjectedDrops)
			}
			for _, run := range runs {
				rep.sameState(run, base)
			}
		},
		finish: func(rep *MatrixReport) {
			retransmits := map[string]int64{}
			for _, run := range rep.Runs {
				retransmits[run.Cell.FaultProfile] += run.Counters.Retransmits
			}
			for _, p := range rep.Options.Profiles {
				if retransmits[p] == 0 {
					rep.failf("profile %q: no retransmit observed anywhere in the matrix (injection not exercised)", p)
				}
			}
		},
		columns: []column{
			{"retrans", "retransmits", func(r MatrixRun) int64 { return r.Counters.Retransmits }},
			{"dupsupp", "dups_suppressed", func(r MatrixRun) int64 { return r.Counters.DupsSuppressed }},
			{"drops", "injected_drops", func(r MatrixRun) int64 { return r.Counters.InjectedDrops }},
			{"dups", "injected_dups", func(r MatrixRun) int64 { return r.Counters.InjectedDups }},
			{"delays", "injected_delays", func(r MatrixRun) int64 { return r.Counters.InjectedDelays }},
		},
		verdict: "all runs bit-identical to their fault-free baselines",
	},

	// Crash-stop recovery: deterministic crash/restart schedules at
	// barrier points; a recovered run equals the crash-free run, and the
	// recovery machinery is demonstrably exercised.
	"crash": {
		title: "crash matrix", axes: []string{"policy"},
		fabrics: []string{"via"}, minNodes: 2, vary: "schedule",
		label: func(c Cell) string { return c.Crash },
		cells: func(o MatrixOptions, base Cell) []Cell {
			cells := []Cell{base}
			for _, events := range CrashSchedules(o.Nodes) {
				c := base
				c.Crash = FormatCrash(events)
				cells = append(cells, c)
			}
			return cells
		},
		check: func(rep *MatrixReport, base MatrixRun, runs []MatrixRun) {
			// Inertness: an empty crash plan must not change the run at
			// all — same bits, same final state, same virtual clock.
			// No crash text lowers to a plan without events, so the empty
			// plan is attached to the baseline's configuration (which
			// lowered once already — the baseline ran).
			inert, _ := base.Cell.BuildConfig()
			inert.Crash = &hlrc.CrashPlan{Events: []hlrc.CrashEvent{}}
			if run, err := base.Cell.run(inert); err != nil {
				rep.failf("%s: empty-plan run: %v", base.Cell, err)
			} else if run.Result != base.Result || run.MemHash != base.MemHash || run.Time != base.Time {
				rep.failf("%s: empty crash plan perturbed the run (time %v vs %v)", base.Cell, run.Time, base.Time)
			}
			for _, run := range runs {
				rep.sameState(run, base)
				c, want := run.Counters, int64(run.Scheduled)
				if c.Crashes != want || c.NodeRestarts != want {
					rep.failf("%s: %d crashes, %d restarts injected, want %d each", run.Cell, c.Crashes, c.NodeRestarts, want)
				}
				if c.Recoveries < want {
					rep.failf("%s: %d recoveries for %d crash events", run.Cell, c.Recoveries, want)
				}
				if c.CkptMsgs == 0 {
					rep.failf("%s: no checkpoint traffic", run.Cell)
				}
			}
		},
		columns: []column{
			{"crashes", "crashes", func(r MatrixRun) int64 { return r.Counters.Crashes }},
			{"recov", "recoveries", func(r MatrixRun) int64 { return r.Counters.Recoveries }},
			{"ckpt", "ckpt_msgs", func(r MatrixRun) int64 { return r.Counters.CkptMsgs }},
			{"resent", "resent_bundles", func(r MatrixRun) int64 { return r.Counters.ResentBundles }},
			{"refetch", "refetches", func(r MatrixRun) int64 { return r.Counters.Refetches }},
			{"locks", "reclaimed_locks", func(r MatrixRun) int64 { return r.Counters.ReclaimedLocks }},
			{"pages", "pages_restored", func(r MatrixRun) int64 { return r.Counters.PagesRestored }},
		},
		verdict: "every recovered run bit-identical to its fault-free baseline",
	},

	// Fixed protocol policies against the adaptive per-page engine: the
	// protocol may move data differently, never compute differently.
	"policy": {
		title: "policy sweep", axes: []string{"modes", "fabrics", "policy"},
		fabrics: []string{"via", "tcp"}, vary: "policy",
		label: func(c Cell) string {
			if c.Policy == hlrc.PolicyLegacy {
				return "legacy"
			}
			return c.Policy
		},
		cells: func(o MatrixOptions, base Cell) []Cell {
			var cells []Cell
			for _, pol := range o.Policies {
				c := base
				c.Policy = pol
				cells = append(cells, c)
			}
			return cells
		},
		check: checkPolicyGroup,
		columns: []column{
			{"bytes", "bytes", func(r MatrixRun) int64 { return r.Counters.Bytes }},
			{"thresh", "threshold", func(r MatrixRun) int64 { return int64(r.Threshold) }},
			{"pushes", "policy_pushes", func(r MatrixRun) int64 { return r.Counters.PolicyPushes }},
			{"refresh", "policy_refreshes", func(r MatrixRun) int64 { return r.Counters.PolicyRefreshes }},
			{"recl", "policy_reclass", func(r MatrixRun) int64 { return r.Counters.PolicyReclass }},
			{"override", "policy_overrides", func(r MatrixRun) int64 { return r.Counters.PolicyHomeOverrides }},
		},
		verdict: "result bits policy-invariant, invalidate byte-identical to legacy",
	},
}

// checkPolicyGroup asserts one app/mode/fabric group's cross-policy
// invariants and records the group as a win when adaptive strictly
// beats every fixed policy on wire bytes or virtual time.
func checkPolicyGroup(rep *MatrixReport, base MatrixRun, runs []MatrixRun) {
	byPolicy := map[string]MatrixRun{base.Cell.Policy: base}
	for _, run := range runs {
		byPolicy[run.Cell.Policy] = run
		if run.Result != base.Result {
			rep.failf("%s: result bits diverged from %s", run.Cell, base.Cell)
		}
	}
	// The explicit invalidate policy is the legacy protocol spelled out:
	// byte- and time-identical, not merely result-identical.
	inv, haveInv := byPolicy[hlrc.PolicyInvalidate]
	leg, haveLeg := byPolicy[hlrc.PolicyLegacy]
	if haveInv && haveLeg && (inv.Time != leg.Time || inv.MemHash != leg.MemHash || inv.Counters.Bytes != leg.Counters.Bytes) {
		rep.failf("%s: diverged from the legacy protocol (time %d vs %d, bytes %d vs %d)",
			inv.Cell, inv.Time, leg.Time, inv.Counters.Bytes, leg.Counters.Bytes)
	}
	adp, ok := byPolicy[hlrc.PolicyAdaptive]
	if !ok {
		return
	}
	timeWin, bytesWin := len(byPolicy) > 1, len(byPolicy) > 1
	for pol, fixed := range byPolicy {
		if pol != hlrc.PolicyAdaptive {
			timeWin = timeWin && adp.Time < fixed.Time
			bytesWin = bytesWin && adp.Counters.Bytes < fixed.Counters.Bytes
		}
	}
	on := ""
	switch {
	case timeWin && bytesWin:
		on = "virtual time and wire bytes"
	case timeWin:
		on = "virtual time"
	case bytesWin:
		on = "wire bytes"
	}
	if on != "" {
		rep.Wins = append(rep.Wins, fmt.Sprintf("%s/%s/%s: adaptive beats every fixed policy on %s",
			adp.Cell.App, adp.Cell.Mode, adp.Cell.Fabric, on))
	}
}

// pick validates one axis selection against the axis's value table and
// returns it in table order, so a typo can never silently shrink a
// matrix. An empty selection takes def.
func pick(axis string, want, valid, def []string) ([]string, error) {
	if len(want) == 0 {
		return def, nil
	}
	for _, w := range want {
		if !slices.Contains(valid, w) {
			return nil, fmt.Errorf("harness: unknown %s %q (valid: %q)", axis, w, valid)
		}
	}
	kept := make([]string, 0, len(want))
	for _, v := range valid {
		if slices.Contains(want, v) {
			kept = append(kept, v)
		}
	}
	return kept, nil
}

// resolve validates a selection against the named matrix and fills its
// defaults.
func resolve(name string, o MatrixOptions) (*matrix, MatrixOptions, error) {
	m, ok := matrices[name]
	if !ok {
		return nil, o, fmt.Errorf("harness: unknown matrix %q (valid: chaos, crash, policy)", name)
	}
	for _, sel := range []struct {
		axis string
		set  bool
	}{
		{"modes", len(o.Modes) > 0}, {"fabrics", len(o.Fabrics) > 0}, {"profiles", len(o.Profiles) > 0},
		{"seed", o.Seed != 0}, {"policy", len(o.Policies) > 0},
	} {
		if sel.set && !slices.Contains(m.axes, sel.axis) {
			return nil, o, fmt.Errorf("harness: the %s matrix has no %s axis", name, sel.axis)
		}
	}
	def := Cell{Nodes: o.Nodes, Seed: o.Seed}.Normalize()
	o.Nodes, o.Seed = def.Nodes, def.Seed
	if minNodes := max(m.minNodes, 1); o.Nodes < minNodes {
		return nil, o, fmt.Errorf("harness: the %s matrix needs at least %d nodes, got %d", name, minNodes, o.Nodes)
	}
	defPolicies := []string{hlrc.PolicyLegacy}
	if m.vary == "policy" {
		defPolicies = hlrc.PolicyNames()
	} else if len(o.Policies) > 1 {
		return nil, o, fmt.Errorf("harness: the %s matrix runs every cell under one policy, got %q", name, o.Policies)
	}
	var err error
	for _, ax := range []struct {
		axis       string
		sel        *[]string
		valid, def []string
	}{
		{"app", &o.Apps, MatrixAppNames(), MatrixAppNames()},
		{"mode", &o.Modes, MatrixModes(), MatrixModes()},
		{"fabric", &o.Fabrics, m.fabrics, m.fabrics},
		{"fault profile", &o.Profiles, FaultProfiles(), FaultProfiles()},
		{"policy", &o.Policies, hlrc.PolicyNames(), defPolicies},
	} {
		if *ax.sel, err = pick(ax.axis, *ax.sel, ax.valid, ax.def); err != nil {
			return nil, o, err
		}
	}
	return m, o, nil
}

// groups enumerates the matrix: one slice of cells per app × mode ×
// fabric, the group's baseline first.
func (m *matrix) groups(o MatrixOptions) [][]Cell {
	var groups [][]Cell
	for _, app := range o.Apps {
		for _, mode := range o.Modes {
			for _, fabric := range o.Fabrics {
				groups = append(groups, m.cells(o, Cell{App: app, Mode: mode, Fabric: fabric,
					Nodes: o.Nodes, Seed: o.Seed, Policy: o.Policies[0]}))
			}
		}
	}
	return groups
}

// MatrixCells returns every cell the named matrix enumerates for a
// selection, without running any.
func MatrixCells(name string, opt MatrixOptions) ([]Cell, error) {
	m, opt, err := resolve(name, opt)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, g := range m.groups(opt) {
		cells = append(cells, g...)
	}
	return cells, nil
}

// RunMatrix executes the named acceptance matrix ("chaos", "crash" or
// "policy") over the selected cells. The error is non-nil for an invalid
// selection or a baseline cell that failed to run; invariant violations
// are the report's Failures.
func RunMatrix(name string, opt MatrixOptions) (MatrixReport, error) {
	m, opt, err := resolve(name, opt)
	if err != nil {
		return MatrixReport{}, err
	}
	rep := MatrixReport{Matrix: name, Options: opt}
	for _, cells := range m.groups(opt) {
		base, err := cells[0].Run()
		if err != nil {
			return rep, fmt.Errorf("harness: %s baseline: %w", cells[0], err)
		}
		base.Slowdown = 1
		rep.Runs = append(rep.Runs, base)
		var runs []MatrixRun
		for _, c := range cells[1:] {
			run := MatrixRun{Cell: c}
			cfg, err := c.BuildConfig()
			if err == nil {
				need := 0
				if cfg.Crash != nil {
					for _, ev := range cfg.Crash.Events {
						need = max(need, ev.Barrier)
					}
				}
				if int64(need) > base.Counters.Barriers {
					rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: needs barrier %d, app runs only %d",
						c, need, base.Counters.Barriers))
					continue
				}
				run, err = c.run(cfg)
			}
			if err != nil {
				run.Err = err.Error()
				rep.failf("%s: %v", c, err)
			} else {
				if base.Kernel > 0 {
					run.Slowdown = float64(run.Kernel) / float64(base.Kernel)
				}
				runs = append(runs, run)
			}
			rep.Runs = append(rep.Runs, run)
		}
		m.check(&rep, base, runs)
	}
	if m.finish != nil {
		m.finish(&rep)
	}
	return rep, nil
}

// Render formats the matrix as an aligned text table plus the verdict.
func (r MatrixReport) Render() string {
	m, o := matrices[r.Matrix], r.Options
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes", m.title, o.Nodes)
	if slices.Contains(m.axes, "seed") {
		fmt.Fprintf(&b, ", fault seed %d", o.Seed)
	}
	if m.vary != "policy" && o.Policies[0] != "" {
		fmt.Fprintf(&b, ", policy %s", o.Policies[0])
	}
	fmt.Fprintf(&b, "\n%-10s %-7s %-6s %-10s %12s %12s %9s", "app", "mode", "fabric", m.vary, "kernel", "time", "slowdown")
	for _, col := range m.columns {
		fmt.Fprintf(&b, " %9s", col.head)
	}
	fmt.Fprintf(&b, "\n")
	for _, run := range r.Runs {
		label := m.label(run.Cell)
		if label == "" {
			label = "(none)"
		}
		fmt.Fprintf(&b, "%-10s %-7s %-6s %-10s", run.Cell.App, run.Cell.Mode, run.Cell.Fabric, label)
		if run.Err != "" {
			fmt.Fprintf(&b, " ERROR: %s\n", run.Err)
			continue
		}
		fmt.Fprintf(&b, " %12s %12s %8.2fx", run.Kernel, run.Time, run.Slowdown)
		for _, col := range m.columns {
			fmt.Fprintf(&b, " %9d", col.get(run))
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "skip: %s\n", s)
	}
	for _, w := range r.Wins {
		fmt.Fprintf(&b, "WIN: %s\n", w)
	}
	if r.OK() {
		fmt.Fprintf(&b, "OK: %s\n", m.verdict)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}

// WriteJSONL streams the matrix as JSON lines: a header object (schema
// "parade-<matrix>/v1"), one object per run carrying the cell, its
// observables and the matrix's columns, then a summary with the wins and
// failures.
func (r MatrixReport) WriteJSONL(w io.Writer) error {
	m := matrices[r.Matrix]
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Schema string `json:"schema"`
		Nodes  int    `json:"nodes"`
		Lanes  int    `json:"lanes"` // always 0: the key stays so the schema does not move
	}{"parade-" + r.Matrix + "/v1", r.Options.Nodes, 0}); err != nil {
		return err
	}
	for _, run := range r.Runs {
		fabric, _ := netsim.FabricByName(run.Cell.Fabric)
		line, err := json.Marshal(struct {
			App     string `json:"app"`
			Mode    string `json:"mode"`
			Fabric  string `json:"fabric"`
			Policy  string `json:"policy"` // "" is legacy
			Profile string `json:"profile,omitempty"`
			Crash   string `json:"crash,omitempty"`
			Result  string `json:"result"`
			MemHash uint64 `json:"mem_hash"`
			Kernel  int64  `json:"kernel_ns"`
			Time    int64  `json:"time_ns"`
		}{run.Cell.App, run.Cell.Mode, fabric.Name, run.Cell.Policy, run.Cell.FaultProfile, run.Cell.Crash,
			run.Result, run.MemHash, int64(run.Kernel), int64(run.Time)})
		if err != nil {
			return err
		}
		// The matrix's columns follow the fixed fields as flat keys.
		line = line[:len(line)-1]
		for _, col := range m.columns {
			line = fmt.Appendf(line, ",%q:%d", col.key, col.get(run))
		}
		if run.Err != "" {
			msg, _ := json.Marshal(run.Err)
			line = fmt.Appendf(line, `,"err":%s`, msg)
		}
		if _, err := w.Write(append(line, '}', '\n')); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Wins     []string `json:"wins"`
		Failures []string `json:"failures"`
		OK       bool     `json:"ok"`
	}{r.Wins, r.Failures, r.OK()})
}

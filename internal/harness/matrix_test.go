package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"parade/internal/hlrc"
)

var update = flag.Bool("update", false, "rewrite testdata/matrix_*.jsonl and testdata/fig*.txt from this run")

// requireGolden compares the matrix's JSONL byte for byte against
// testdata/matrix_<name>.jsonl, or rewrites the file under -update. The
// goldens pin every cell's result bits, memory fingerprint, virtual
// times and counters; regenerate one with `go test ./internal/harness
// -run <Test> -update` only for a change meant to move them.
func requireGolden(t *testing.T, rep MatrixReport) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	requirePinned(t, "testdata/matrix_"+rep.Matrix+".jsonl", buf.String())
}

// requirePinned compares got line by line with the file at path, or
// rewrites the file under -update.
func requirePinned(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "(none)", "(none)"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

// mustRunMatrix runs a matrix and requires every invariant to hold.
func mustRunMatrix(t *testing.T, name string, opt MatrixOptions) MatrixReport {
	t.Helper()
	rep, err := RunMatrix(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s matrix failed:\n%s", name, rep.Render())
	}
	return rep
}

// requireReproducible: the same selection replays the identical matrix,
// cell for cell (virtual times, counters, fingerprints).
func requireReproducible(t *testing.T, name string, opt MatrixOptions) {
	t.Helper()
	a, b := mustRunMatrix(t, name, opt).Render(), mustRunMatrix(t, name, opt).Render()
	if a != b {
		t.Fatalf("%s matrix not reproducible:\n--- first\n%s--- second\n%s", name, a, b)
	}
}

// TestChaosMatrix is the acceptance sweep: every app kernel in both
// directive modes under every built-in fault profile must produce
// results bit-identical to the fault-free baselines, converge to the
// same final DSM state, and exercise at least one retransmit per
// profile. Every cell matches testdata/matrix_chaos.jsonl. (~1s; CI runs
// the same sweep via `go test -run Chaos ./...` and `parade-bench
// -matrix chaos`.)
func TestChaosMatrix(t *testing.T) {
	rep := mustRunMatrix(t, "chaos", MatrixOptions{Nodes: 4, Seed: 1})
	// 7 apps x 2 modes x (baseline + 5 profiles).
	if len(rep.Runs) != 84 || len(rep.Skipped) != 0 {
		t.Fatalf("matrix ran %d cells with %d skips, want 84 and 0", len(rep.Runs), len(rep.Skipped))
	}
	requireGolden(t, rep)
}

func TestChaosMatrixReproducible(t *testing.T) {
	requireReproducible(t, "chaos", MatrixOptions{Nodes: 2, Seed: 9, Apps: []string{"helmholtz"}})
}

// TestChaosFilters: app and profile subsets select the right cells.
func TestChaosFilters(t *testing.T) {
	rep, err := RunMatrix("chaos", MatrixOptions{Nodes: 2, Apps: []string{"ep"}, Profiles: []string{"chaos"}})
	if err != nil {
		t.Fatal(err)
	}
	// One app, two modes, baseline + one profile each.
	if len(rep.Runs) != 4 {
		t.Fatalf("got %d runs, want 4:\n%s", len(rep.Runs), rep.Render())
	}
	for _, run := range rep.Runs {
		if run.Cell.App != "ep" {
			t.Fatalf("unexpected app %q in filtered sweep", run.Cell.App)
		}
	}
}

// TestCrashMatrix is the acceptance gate for crash-stop recovery: every
// app, both modes, every applicable crash schedule — recovered runs
// bit-identical to their fault-free baselines, recovery machinery
// demonstrably exercised, and the empty crash plan provably inert. Every
// cell matches testdata/matrix_crash.jsonl.
func TestCrashMatrix(t *testing.T) {
	rep := mustRunMatrix(t, "crash", MatrixOptions{Nodes: 4})
	// 7 apps x 2 modes x (baseline + 3 schedules), less ep/hybrid's two
	// schedules past its single barrier.
	if len(rep.Runs) != 54 || len(rep.Skipped) != 2 {
		t.Fatalf("matrix ran %d cells with %d skips, want 54 and 2:\n%s", len(rep.Runs), len(rep.Skipped), rep.Render())
	}
	crashed := 0
	for _, run := range rep.Runs {
		if run.Cell.Crash != "" && run.Counters.Crashes > 0 {
			crashed++
		}
	}
	if crashed != 40 {
		t.Fatalf("%d crash cells ran, want 40:\n%s", crashed, rep.Render())
	}
	requireGolden(t, rep)
}

func TestCrashMatrixReproducible(t *testing.T) {
	requireReproducible(t, "crash", MatrixOptions{Nodes: 4, Apps: []string{"md"}})
}

// TestCrashLockmixExercisesLockCaching: the lockmix rows must run the
// cached lock protocol (the matrix's reason for carrying the kernel).
func TestCrashLockmixExercisesLockCaching(t *testing.T) {
	rep := mustRunMatrix(t, "crash", MatrixOptions{Nodes: 4, Apps: []string{"lockmix"}})
	for _, run := range rep.Runs {
		if run.Cell.Crash != "" && run.Counters.CkptMsgs == 0 {
			t.Fatalf("lockmix %s shipped no checkpoints (token replication dead?)", run.Cell)
		}
	}
}

// TestCrashNeedsTwoNodes: a single node has no buddy to checkpoint to.
func TestCrashNeedsTwoNodes(t *testing.T) {
	if _, err := RunMatrix("crash", MatrixOptions{Nodes: 1}); err == nil {
		t.Fatal("1-node crash matrix accepted")
	}
}

// TestPolicySweepInvariants runs one full group known to be an adaptive
// win and checks everything the sweep promises: all four policies run,
// the internal identity checks pass, the classifier actually
// reclassified pages, and the group is reported as a win. Every cell
// matches testdata/matrix_policy.jsonl.
func TestPolicySweepInvariants(t *testing.T) {
	rep := mustRunMatrix(t, "policy", MatrixOptions{
		Apps: []string{"helmholtz"}, Modes: []string{"sdsm"}, Fabrics: []string{"via"},
	})
	if len(rep.Runs) != len(hlrc.PolicyNames()) {
		t.Fatalf("sweep ran %d cells, want %d", len(rep.Runs), len(hlrc.PolicyNames()))
	}
	adp := rep.Runs[len(rep.Runs)-1]
	if adp.Cell.Policy != hlrc.PolicyAdaptive {
		t.Fatalf("last run is policy %q, want adaptive", adp.Cell.Policy)
	}
	if adp.Counters.PolicyReclass == 0 {
		t.Fatal("adaptive run never reclassified a page")
	}
	if adp.Threshold == 256 {
		t.Fatal("adaptive run kept the paper's fixed threshold; AutoThreshold never fired")
	}
	if len(rep.Wins) == 0 {
		t.Fatalf("helmholtz/sdsm/via should be an adaptive win cell:\n%s", rep.Render())
	}
	requireGolden(t, rep)
}

// TestPolicyMatrixDefaultCells pins the default sweep's size: 7 apps x
// 2 modes x 2 fabrics x 4 policies.
func TestPolicyMatrixDefaultCells(t *testing.T) {
	cells, err := MatrixCells("policy", MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 112 {
		t.Fatalf("policy matrix enumerates %d cells, want 112", len(cells))
	}
}

// TestFixedInvalidateMatchesLegacy pins the policy refactor's ground
// rule: the strategy-based "invalidate" engine is the legacy protocol
// spelled out, byte- and time-identical, not merely result-identical.
// (The sweep asserts this internally too; this test keeps the property
// named and debuggable on its own.)
func TestFixedInvalidateMatchesLegacy(t *testing.T) {
	rep := mustRunMatrix(t, "policy", MatrixOptions{
		Apps:     []string{"md"},
		Policies: []string{hlrc.PolicyLegacy, hlrc.PolicyInvalidate},
	})
	if len(rep.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(rep.Runs))
	}
	for i := 0; i < len(rep.Runs); i += 2 {
		leg, inv := rep.Runs[i], rep.Runs[i+1]
		if leg.Cell.Policy != hlrc.PolicyLegacy || inv.Cell.Policy != hlrc.PolicyInvalidate {
			t.Fatalf("runs %d,%d are policies %q,%q", i, i+1, leg.Cell.Policy, inv.Cell.Policy)
		}
		if leg.Time != inv.Time || leg.MemHash != inv.MemHash || leg.Counters.Bytes != inv.Counters.Bytes {
			t.Fatalf("%s diverged from legacy", inv.Cell)
		}
	}
}

// TestPolicySweepRejectsBadInput is the one selection-validation table
// for every matrix (the name predates the shared engine): each selector
// is validated before any cell runs, an unknown value is an error naming
// the valid set — even alongside valid names, so a typo can never
// silently shrink a matrix — and so is a selection on an axis the matrix
// does not have.
func TestPolicySweepRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, matrix string
		opt          MatrixOptions
		frags        []string
	}{
		{"unknown app", "policy", MatrixOptions{Apps: []string{"nope"}}, []string{`unknown app "nope"`}},
		{"unknown mode", "policy", MatrixOptions{Modes: []string{"nope"}}, []string{`unknown mode "nope"`, "sdsm"}},
		{"unknown policy", "policy", MatrixOptions{Policies: []string{"nope"}}, []string{`unknown policy "nope"`, "adaptive"}},
		{"unknown fabric", "policy", MatrixOptions{Fabrics: []string{"nope"}}, []string{`unknown fabric "nope"`, "tcp"}},
		{"chaos unknown profile", "chaos", MatrixOptions{Profiles: []string{"nope"}}, []string{`unknown fault profile "nope"`, "drop"}},
		{"chaos unknown profile among valid", "chaos", MatrixOptions{Profiles: []string{"drop", "nope"}}, []string{`unknown fault profile "nope"`}},
		{"chaos unknown app among valid", "chaos", MatrixOptions{Apps: []string{"helmholtz", "nosuch"}}, []string{`unknown app "nosuch"`, "lockmix"}},
		{"crash unknown app among valid", "crash", MatrixOptions{Apps: []string{"md", "nosuch"}}, []string{`unknown app "nosuch"`, "lockmix"}},
		{"chaos unknown policy", "chaos", MatrixOptions{Nodes: 4, Policies: []string{"nope"}}, []string{`unknown policy "nope"`}},
		{"crash unknown policy", "crash", MatrixOptions{Nodes: 4, Policies: []string{"nope"}}, []string{`unknown policy "nope"`}},
		{"chaos two policies", "chaos", MatrixOptions{Policies: []string{"update", "adaptive"}}, []string{"one policy"}},
		{"chaos has no fabric axis", "chaos", MatrixOptions{Fabrics: []string{"tcp"}}, []string{"no fabrics axis"}},
		{"crash has no profile axis", "crash", MatrixOptions{Profiles: []string{"drop"}}, []string{"no profiles axis"}},
		{"crash has no seed axis", "crash", MatrixOptions{Seed: 7}, []string{"no seed axis"}},
		{"policy has no profile axis", "policy", MatrixOptions{Profiles: []string{"drop"}}, []string{"no profiles axis"}},
		{"unknown matrix", "nope", MatrixOptions{}, []string{`unknown matrix "nope"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMatrix(tc.matrix, tc.opt)
			for _, frag := range tc.frags {
				if err == nil || !strings.Contains(err.Error(), frag) {
					t.Fatalf("err = %v, want mention of %q", err, frag)
				}
			}
		})
	}
}

// TestPolicyReportJSONL: the stream is one header, one line per run,
// and a summary, each valid JSON; the policy matrix keeps the schema tag
// and per-run field names its consumers read.
func TestPolicyReportJSONL(t *testing.T) {
	rep := mustRunMatrix(t, "policy", MatrixOptions{
		Apps: []string{"md"}, Modes: []string{"hybrid"}, Fabrics: []string{"via"},
		Policies: []string{hlrc.PolicyLegacy, hlrc.PolicyAdaptive},
	})
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if want := 1 + len(rep.Runs) + 1; len(lines) != want {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), want)
	}
	if got := lines[0]["schema"]; got != "parade-policy/v1" {
		t.Fatalf("header schema = %v", got)
	}
	for _, key := range []string{"app", "mode", "fabric", "policy", "result", "mem_hash", "kernel_ns", "time_ns",
		"bytes", "threshold", "policy_pushes", "policy_refreshes", "policy_reclass", "policy_overrides"} {
		if _, ok := lines[1][key]; !ok {
			t.Fatalf("run line lacks %q: %v", key, lines[1])
		}
	}
	if ok, is := lines[len(lines)-1]["ok"].(bool); !is || ok != rep.OK() {
		t.Fatalf("summary ok = %v, want %v", lines[len(lines)-1]["ok"], rep.OK())
	}
}

// adaptiveApps is the matrix subset the adaptive-policy invariants hold
// for: every kernel whose shared-memory access pattern is a pure
// function of program order. The dependence-scheduled kernel (taskdep)
// is excluded by construction, not as a gap: a task's faults and read
// observations are attributed to whichever node executed it, which
// depends on the steal schedule, so the classifier's inputs — and with
// them the elected protocol per page — legitimately differ between a
// faulted and a fault-free run. Its results stay bit-identical (the
// plain chaos and crash matrices assert that with taskdep included);
// only the adaptive engine's page-state choices may differ.
func adaptiveApps() []string {
	var out []string
	for _, n := range MatrixAppNames() {
		if n != "taskdep" {
			out = append(out, n)
		}
	}
	return out
}

// TestAdaptivePolicyChaosMatrix: the fault-injection matrix holds with
// the adaptive engine active — protocol elections are a pure function
// of program order, so faulted runs stay bit-identical to their
// fault-free baselines.
func TestAdaptivePolicyChaosMatrix(t *testing.T) {
	mustRunMatrix(t, "chaos", MatrixOptions{Nodes: 4, Seed: 1, Policies: []string{hlrc.PolicyAdaptive}, Apps: adaptiveApps()})
}

// TestAdaptivePolicyCrashMatrix: crash/restart recovery under the
// adaptive engine — the classifier folds into the checkpointed
// fingerprint, so recovered runs must still match their baselines.
func TestAdaptivePolicyCrashMatrix(t *testing.T) {
	mustRunMatrix(t, "crash", MatrixOptions{Nodes: 4, Policies: []string{hlrc.PolicyAdaptive}, Apps: adaptiveApps()})
}

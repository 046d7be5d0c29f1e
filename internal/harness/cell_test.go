package harness

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"parade/internal/obs"
	"parade/internal/stats"
)

// TestLockmixTwoThreadsLockCaching is the regression test for the
// INVALID -> DIRTY panic: with two threads per node and cached lock
// tokens, a page could be invalidated while a write fault yielded in
// twin creation, and makeDirty then dirtied the invalid page. The cell
// must complete with Sum == Expected (the second result word) in both
// modes.
func TestLockmixTwoThreadsLockCaching(t *testing.T) {
	for _, mode := range MatrixModes() {
		cell := Cell{App: "lockmix", Mode: mode, Nodes: 8, ThreadsPerNode: 2}
		if cfg, err := cell.BuildConfig(); err != nil || !cfg.LockCaching {
			t.Fatalf("%s: BuildConfig() = LockCaching %v, err %v; lockmix always runs with lock caching", mode, cfg.LockCaching, err)
		}
		run, err := cell.Run()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		// Result is fpBits(Sum, Expected): two 16-digit hex words.
		if len(run.Result) != 32 || run.Result[:16] != run.Result[16:] {
			t.Errorf("%s: Sum != Expected (result bits %s)", mode, run.Result)
		}
	}
}

// TestCrashSpecRoundTrip: FormatCrash inverts ParseCrash on canonical
// text, whitespace and empty events are dropped, and malformed events
// are errors.
func TestCrashSpecRoundTrip(t *testing.T) {
	for spec, want := range map[string]string{
		"": "", "1@2": "1@2", " 1@1 , 1@3 ": "1@1,1@3", "3@2,": "3@2",
	} {
		events, err := ParseCrash(spec)
		if err != nil {
			t.Fatalf("ParseCrash(%q): %v", spec, err)
		}
		if got := FormatCrash(events); got != want {
			t.Errorf("ParseCrash(%q) formats as %q, want %q", spec, got, want)
		}
		for _, ev := range events {
			if !ev.Restart {
				t.Errorf("ParseCrash(%q): event %+v does not restart", spec, ev)
			}
		}
	}
	for _, spec := range []string{"1", "a@1", "1@b", "1@1;2@2"} {
		if _, err := ParseCrash(spec); err == nil {
			t.Errorf("ParseCrash(%q) accepted", spec)
		}
	}
}

// TestPerNodeSumsToCounters is the one-registry cross-check: for every
// matrix kernel and mode, with and without a crash schedule, the
// per-node rows Report.Obs presents sum field by field to
// Report.Counters. It also pins the
// attributions a second tally used to get wrong: global barriers live on
// the master's row, and without crashes every fetch issued is served.
func TestPerNodeSumsToCounters(t *testing.T) {
	rows := func(c Cell) {
		t.Helper()
		app, err := MatrixAppByName(c.App)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.BuildConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.New(cfg.Nodes)
		_, _, rep, err := app.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		out := make([]stats.Counters, rep.Obs.Nodes())
		var sum stats.Counters
		for n := range out {
			out[n] = rep.Obs.Node(n)
			sum.Add(&out[n])
			if n > 0 && out[n].Barriers != 0 {
				t.Errorf("%s: node %d carries %d sdsm_barriers", c, n, out[n].Barriers)
			}
		}
		if len(out) != cfg.Nodes || sum != rep.Counters {
			t.Errorf("%s: %d rows sum to\n%s\nReport.Counters is\n%s", c, len(out), sum.String(), rep.Counters.String())
		}
		if cfg.Crash == nil && sum.FetchesIssued != sum.PageFetches {
			t.Errorf("%s: %d fetches issued, %d served", c, sum.FetchesIssued, sum.PageFetches)
		}
		if cfg.Crash != nil && sum.Crashes != int64(len(cfg.Crash.Events)) {
			t.Errorf("%s: %d crashes, want %d", c, sum.Crashes, len(cfg.Crash.Events))
		}
	}
	for _, app := range MatrixAppNames() {
		for _, mode := range MatrixModes() {
			for _, schedule := range []string{"", "1@1"} {
				rows(Cell{App: app, Mode: mode, Crash: schedule})
			}
		}
	}
}

// TestCellIdentityIsComplete pins what the fleet's cache and WAL stand
// on — equal canonical strings mean equal configurations — against the
// one way it can rot: a field added to Cell and forgotten in Canonical
// or BuildConfig. Every field outside the envelope {ID, DeadlineMS},
// set to a valid non-default value, must change the canonical string
// (or a cache hit could return another configuration's result) and the
// lowered configuration (or the field is dead). The envelope changes
// neither. The retired lanes key changes neither and any non-zero value
// is invalid on that key. Scale, like App, picks the problem the
// configuration runs rather than a Config field: it must change the
// canonical string and the problem. The base cell has a fault profile,
// so the fault seed is live.
func TestCellIdentityIsComplete(t *testing.T) {
	base := Cell{App: "cg", Mode: "hybrid", FaultProfile: "drop"}
	// One valid non-default value per field, by Go field name. App picks
	// the kernel the configuration runs under rather than a Config field;
	// lockmix is the value the lowering itself reacts to (lock caching).
	variants := map[string]any{
		"ID": "client-7", "DeadlineMS": int64(250),
		"App": "lockmix", "Mode": "sdsm", "Fabric": "tcp", "Nodes": 8, "ThreadsPerNode": 2,
		"Lanes": 2, "Seed": int64(7), "FaultProfile": "chaos", "Crash": "1@2",
		"LockCaching": true, "Policy": "adaptive", "Hetero": "slow1",
		"CPUsPerNode": 1, "Scale": ScaleBench,
	}
	envelope := map[string]bool{"ID": true, "DeadlineMS": true}
	problem := func(c Cell) string {
		app, err := MatrixAppByName(c.App)
		if err != nil {
			t.Fatal(err)
		}
		p, err := app.Problem(c.Scale)
		if err != nil {
			t.Fatal(err)
		}
		return p.Desc
	}
	retired := map[string]string{"Lanes": "lanes"}
	baseCfg, err := base.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		val, ok := variants[name]
		if !ok {
			t.Errorf("Cell.%s has no variant here: add one, and a Validate clause and a Canonical term for the field", name)
			continue
		}
		c := base
		reflect.ValueOf(&c).Elem().Field(i).Set(reflect.ValueOf(val))
		cfg, err := c.BuildConfig()
		if key, ok := retired[name]; ok {
			var ce *CellError
			if !errors.As(err, &ce) || len(ce.Fields) != 1 || ce.Fields[0].Field != key {
				t.Errorf("retired field Cell.%s = %v: err %v, want a *CellError on %q", name, val, err, key)
			}
			if c.Canonical() != base.Canonical() {
				t.Errorf("retired field Cell.%s changed Canonical(): %q", name, c.Canonical())
			}
			continue
		}
		if err != nil {
			t.Errorf("Cell.%s = %v: %v", name, val, err)
			continue
		}
		sameCanon := c.Canonical() == base.Canonical() && c.Fingerprint() == base.Fingerprint()
		sameCfg := reflect.DeepEqual(cfg, baseCfg)
		if envelope[name] {
			if !sameCanon || !sameCfg {
				t.Errorf("envelope field Cell.%s changed identity (%v) or lowering (%v)", name, !sameCanon, !sameCfg)
			}
			continue
		}
		if sameCanon {
			t.Errorf("Cell.%s = %v does not change Canonical(): %q", name, val, c.Canonical())
		}
		if name == "Scale" {
			if problem(c) == problem(base) {
				t.Errorf("Cell.Scale = %v does not change the problem (%q)", val, problem(c))
			}
			continue
		}
		if sameCfg {
			t.Errorf("Cell.%s = %v does not change BuildConfig(): the field is dead", name, val)
		}
	}
}

// TestMatrixCellsSurviveTheWire: a matrix cell is a job spec, so every
// cell of the three acceptance matrices round-trips through JSON equal
// and with an equal identity — it can be POSTed to parade-serve as-is.
// Lower's answers are the single-decision methods' answers.
func TestMatrixCellsSurviveTheWire(t *testing.T) {
	for _, name := range []string{"chaos", "crash", "policy"} {
		cells, err := MatrixCells(name, MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			line, err := json.Marshal(cell)
			if err != nil {
				t.Fatal(err)
			}
			var back Cell
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if back != cell || back.Canonical() != cell.Canonical() {
				t.Errorf("%s cell %s came back from %s as %+v", name, cell, line, back)
			}
			l := cell.Lower()
			cfg, err := cell.BuildConfig()
			if l.Cell != cell.Normalize() || l.Canonical != cell.Canonical() || l.Fingerprint != cell.Fingerprint() ||
				l.Invalid != nil || err != nil || !reflect.DeepEqual(l.Config, cfg) {
				t.Errorf("%s cell %s: Lower() disagrees with the methods it bundles: %+v (BuildConfig err %v)", name, cell, l, err)
			}
		}
	}
}

package harness

import (
	"reflect"
	"testing"

	"parade/internal/hlrc"
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
		if cfg, err := cell.Config(); err != nil || !cfg.LockCaching {
			t.Fatalf("%s: Config() = LockCaching %v, err %v; lockmix always runs with lock caching", mode, cfg.LockCaching, err)
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
// matrix kernel and mode, on the legacy kernel, on lanes 1 and 4, and
// under a crash schedule (the relaxed single-worker regime), the per-node
// rows Report.Obs presents sum field by field to Report.Counters, and a
// run's rows do not depend on the lane worker count. It also pins the
// attributions a second tally used to get wrong: global barriers live on
// the master's row, and without crashes every fetch issued is served.
func TestPerNodeSumsToCounters(t *testing.T) {
	rows := func(c Cell) []stats.Counters {
		t.Helper()
		app, err := MatrixAppByName(c.App)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.New(cfg.Nodes)
		_, _, rep, err := app.Run(cfg)
		if err != nil {
			t.Fatalf("%s lanes=%d: %v", c, c.Lanes, err)
		}
		out := make([]stats.Counters, rep.Obs.Nodes())
		var sum stats.Counters
		for n := range out {
			out[n] = rep.Obs.Node(n)
			sum.Add(&out[n])
			if n > 0 && out[n].Barriers != 0 {
				t.Errorf("%s lanes=%d: node %d carries %d sdsm_barriers", c, c.Lanes, n, out[n].Barriers)
			}
		}
		if len(out) != cfg.Nodes || sum != rep.Counters {
			t.Errorf("%s lanes=%d: %d rows sum to\n%s\nReport.Counters is\n%s", c, c.Lanes, len(out), sum.String(), rep.Counters.String())
		}
		if c.Crash == nil && sum.FetchesIssued != sum.PageFetches {
			t.Errorf("%s lanes=%d: %d fetches issued, %d served", c, c.Lanes, sum.FetchesIssued, sum.PageFetches)
		}
		if c.Crash != nil && sum.Crashes != int64(len(c.Crash)) {
			t.Errorf("%s lanes=%d: %d crashes, want %d", c, c.Lanes, sum.Crashes, len(c.Crash))
		}
		return out
	}
	crash, err := ParseCrash("1@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range MatrixAppNames() {
		for _, mode := range MatrixModes() {
			for _, schedule := range [][]hlrc.CrashEvent{nil, crash} {
				c := Cell{App: app, Mode: mode, Crash: schedule}
				rows(c)
				c.Lanes = 1
				one := rows(c)
				c.Lanes = 4
				if four := rows(c); !reflect.DeepEqual(one, four) {
					t.Errorf("%s: per-node rows differ between lanes=1 and lanes=4:\n%+v\n%+v", c, one, four)
				}
			}
		}
	}
}

package harness

import "testing"

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

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"parade/internal/microbench"
)

// runArgs runs the command in process and returns its exit status and
// output.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestStdoutMatchesPins: every invocation prints, byte for byte, the
// stdout pinned in testdata. All pins but lockmix.txt were captured from
// the command's own app switch before it ran a harness.Cell; lockmix.txt
// is newer because every lockmix cell runs with lock caching, which the
// switch did not.
func TestStdoutMatchesPins(t *testing.T) {
	for _, tc := range []struct {
		pin  string
		args string
	}{
		{"cg", "-app cg"},
		{"ep", "-app ep"},
		{"cg_S", "-app cg -scale S"},
		{"ep_S", "-app ep -scale S"},
		{"helmholtz", "-app helmholtz -scale bench"},
		{"md", "-app md -scale bench"},
		{"quad", "-app quad -scale bench"},
		{"taskdep", "-app taskdep -scale bench"},
		{"lockmix", "-app lockmix -scale bench"},
		{"cg_sdsm_tcp_pages", "-app cg -nodes 2 -mode sdsm -fabric tcp -pages 4"},
		{"cg_chaos", "-app cg -faults chaos -fault-seed 3"},
		{"cg_crash", "-app cg -crash 1@2"},
		{"md_adaptive", "-app md -policy adaptive -cpus 1 -tpn 2 -scale bench"},
		{"cg_trace", "-app cg -nodes 2 -trace - -trace-format jsonl"},
		{"helmholtz_metrics", "-app helmholtz -metrics - -scale bench"},
	} {
		want, err := os.ReadFile("testdata/" + tc.pin + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		code, got, stderr := runArgs(strings.Fields(tc.args)...)
		if code != 0 {
			t.Errorf("%s: exit %d: %s", tc.args, code, stderr)
			continue
		}
		if got != string(want) {
			t.Errorf("%s: stdout differs from testdata/%s.txt:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", tc.args, tc.pin, got, want)
		}
	}
}

// TestEveryDirectiveRuns: -app takes every app a cell can name, the
// directive microbenchmarks included, and prints its one-line report
// and the counter line.
func TestEveryDirectiveRuns(t *testing.T) {
	for _, name := range microbench.Directives() {
		code, out, stderr := runArgs("-app", name, "-nodes", "2")
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if code != 0 || len(lines) != 2 || !strings.HasPrefix(lines[0], name+": per-directive=") {
			t.Errorf("-app %s: exit %d, stdout %q, stderr %q", name, code, out, stderr)
		}
	}
}

// TestClusterConfigResolvesNames: every name a flag carries is resolved
// by the cell's lowering, so an unknown value is an error naming the
// valid ones — not a silent run of the default (-mode sdsm used to run
// hybrid, -fabric tpc used to run VIA). The retired mode word kdsm is
// unknown too, and taskdep, which always runs on the fasthalf machine,
// rejects any other profile rather than ignoring it.
func TestClusterConfigResolvesNames(t *testing.T) {
	for _, tc := range []struct {
		args    string
		mention []string
	}{
		{"-app bogus", []string{"app:", `"bogus"`, "cg", "critical"}},
		{"-mode bogus", []string{"mode:", `"bogus"`, "hybrid", "sdsm"}},
		{"-mode kdsm", []string{"mode:", `"kdsm"`, "hybrid", "sdsm"}},
		{"-mode parade", []string{"mode:", `"parade"`, "hybrid", "sdsm"}},
		{"-fabric tpc", []string{"fabric:", `"tpc"`, "via", "tcp"}},
		{"-scale bogus", []string{"scale:", `"bogus"`, "bench", "paper", "S, W, A"}},
		{"-class S", []string{"-class"}},
		{"-faults bogus", []string{"fault_profile:", `"bogus"`, "drop"}},
		{"-hetero bogus", []string{"hetero:", `"bogus"`, "fasthalf"}},
		{"-app taskdep -hetero slow1", []string{"hetero:", `"slow1"`, "fasthalf"}},
		{"-crash bogus", []string{"crash:", `"bogus"`, "node@barrier"}},
		{"-policy bogus", []string{"policy:", `"bogus"`, "adaptive"}},
	} {
		code, out, stderr := runArgs(strings.Fields(tc.args)...)
		if code == 0 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want a failure", tc.args, code, out)
			continue
		}
		for _, m := range tc.mention {
			if !strings.Contains(stderr, m) {
				t.Errorf("%s: error %q does not mention %s", tc.args, stderr, m)
			}
		}
	}
}

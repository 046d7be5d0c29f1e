package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs runs the command in process and returns its exit status and
// output.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFigAllChecksEveryScaleFirst: a scale one figure rejects fails the
// whole -fig all run before the first figure prints.
func TestFigAllChecksEveryScaleFirst(t *testing.T) {
	code, stdout, stderr := runArgs("-fig", "all", "-scale", "S", "-nodes", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("stdout = %q, want empty", stdout)
	}
	if !strings.Contains(stderr, "scale") {
		t.Fatalf("stderr %q does not name the scale", stderr)
	}
}

// TestFigNPBClass: an NPB class is a valid scale for the EP figure.
func TestFigNPBClass(t *testing.T) {
	code, stdout, stderr := runArgs("-fig", "9", "-scale", "S", "-nodes", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Fig") {
		t.Fatalf("stdout %q holds no figure", stdout)
	}
}

// TestUnknownMatrixNamesTheValidOnes: an unknown -matrix exits non-zero
// naming every matrix.
func TestUnknownMatrixNamesTheValidOnes(t *testing.T) {
	code, _, stderr := runArgs("-matrix", "bogus")
	if code == 0 {
		t.Fatal("-matrix bogus exited 0")
	}
	for _, name := range []string{"chaos", "crash", "policy"} {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr %q does not name matrix %q", stderr, name)
		}
	}
}

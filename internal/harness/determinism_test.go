package harness

import "testing"

// The simulation substrate must be deterministic: the same configuration
// must replay the same event order and produce byte-identical figures.
// This is what lets the figure pins (testdata/fig*.txt) compare virtual-time
// results across changes, and what the event kernel's (time, seq) total order
// guarantees. The test renders each figure twice in the same process; a
// stray map-iteration dependency, pooled-buffer aliasing bug, or
// tie-break regression in the event heap shows up as a diff here.

func renderTwice(t *testing.T, name string, run func() (Figure, error)) {
	t.Helper()
	first, err := run()
	if err != nil {
		t.Fatalf("%s first run: %v", name, err)
	}
	requireSameRender(t, name, first, run)
}

// requireSameRender fails unless a further, independent run of a figure
// renders byte for byte the same as first.
func requireSameRender(t *testing.T, name string, first Figure, run func() (Figure, error)) {
	t.Helper()
	second, err := run()
	if err != nil {
		t.Fatalf("%s second run: %v", name, err)
	}
	a, b := first.Render(), second.Render()
	if a != b {
		t.Errorf("%s is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", name, a, b)
	}
}

func TestFig6Deterministic(t *testing.T) {
	nodes := []int{1, 2, 4}
	renderTwice(t, "Fig6", func() (Figure, error) { return ByID(6, nodes, ScaleBench) })
}

// TestAppFigureDeterministic renders Fig. 10 (Helmholtz) once more and
// compares it with the render TestFig10HelmholtzShape checks.
func TestAppFigureDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("app figure replay is slow")
	}
	requireSameRender(t, "Fig10", helmholtzFigure(t), runHelmholtzFigure)
}

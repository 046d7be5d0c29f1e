package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// pinnedFigures are the figures cheap enough for tier-1 at bench scale
// over DefaultNodes (Fig. 8 takes ~35 s, Fig. 10 ~4 s); each is computed
// once and shared by its pin and its shape test.
var pinnedFigures = map[int]func() (Figure, error){}

func init() {
	for _, id := range []int{6, 7, 9, 11} {
		pinnedFigures[id] = sync.OnceValues(func() (Figure, error) {
			return ByID(id, DefaultNodes, ScaleBench)
		})
	}
}

func pinnedFigure(t *testing.T, id int) Figure {
	t.Helper()
	fig, err := pinnedFigures[id]()
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// TestFigurePins compares Render() of every pinned figure byte for byte
// with testdata/fig<N>.txt (regenerate with -update, like the matrix
// goldens, only for a change meant to move a figure).
func TestFigurePins(t *testing.T) {
	for _, id := range []int{6, 7, 9, 11} {
		requirePinned(t, fmt.Sprintf("testdata/fig%d.txt", id), pinnedFigure(t, id).Render())
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	fig := pinnedFigure(t, 6)
	if len(fig.Series) != 2 || fig.Series[0].Label != "ParADE" || fig.Series[1].Label != "KDSM" {
		t.Fatalf("series %+v", fig.Series)
	}
	p, k := fig.Series[0].Y, fig.Series[1].Y
	for i := range p {
		if p[i] >= k[i] {
			t.Fatalf("at %d nodes ParADE (%.1fus) not faster than KDSM (%.1fus)",
				fig.Series[0].X[i], p[i], k[i])
		}
	}
	// The gap widens with nodes (§6.1).
	if k[2]-p[2] <= k[1]-p[1] {
		t.Fatalf("gap not widening: %v vs %v", k, p)
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	fig := pinnedFigure(t, 7)
	p, k := fig.Series[0].Y, fig.Series[1].Y
	for i := range p {
		if p[i] >= k[i] {
			t.Fatalf("single: ParADE %v not faster than KDSM %v", p, k)
		}
	}
}

func TestFig9EPShape(t *testing.T) {
	fig := pinnedFigure(t, 9)
	for _, s := range fig.Series {
		// EP scales near-linearly for every configuration (§6.2).
		if s.Y[2] >= s.Y[0]/3 {
			t.Fatalf("series %s not near-linear: %v", s.Label, s.Y)
		}
	}
	// 2T2C halves the time of 1T2C (twice the compute threads).
	t1, t2 := fig.Series[1].Y[0], fig.Series[2].Y[0]
	if t2 >= t1*0.75 {
		t.Fatalf("2T2C (%v) should be about half of 1T2C (%v)", t2, t1)
	}
}

func TestFig10HelmholtzShape(t *testing.T) {
	fig, err := ByID(10, []int{1, 2, 4}, ScaleBench)
	if err != nil {
		t.Fatal(err)
	}
	oneT1C, oneT2C := fig.Series[0], fig.Series[1]
	// Times decrease with nodes for the overlapped configurations.
	if oneT2C.Y[2] >= oneT2C.Y[0] {
		t.Fatalf("1T2C not scaling: %v", oneT2C.Y)
	}
	// 1T1C is the slowest configuration on multiple nodes (§6.2).
	for i := 1; i < 3; i++ {
		if oneT1C.Y[i] < oneT2C.Y[i] {
			t.Fatalf("at %d nodes 1T1C (%v) beat 1T2C (%v)", fig.Series[0].X[i], oneT1C.Y[i], oneT2C.Y[i])
		}
	}
}

func TestByIDValidation(t *testing.T) {
	if _, err := ByID(5, DefaultNodes, ScaleBench); err == nil {
		t.Fatal("figure 5 has no data series; ByID should reject it")
	}
	if _, err := ByID(12, DefaultNodes, ScaleBench); err == nil {
		t.Fatal("figure 12 does not exist")
	}
	// A bad scale is a cell error on the scale axis, for every figure
	// (Figs. 6–7 included), before anything runs.
	for _, id := range []int{6, 9} {
		_, err := ByID(id, []int{1}, "papr")
		if err == nil || !strings.Contains(err.Error(), "scale: unknown scale \"papr\" (valid: bench, paper") {
			t.Errorf("Fig%d at scale papr: err %v, want a scale field error naming bench, paper", id, err)
		}
	}
}

func TestRenderFormat(t *testing.T) {
	fig := Figure{
		ID: "FigX", Title: "test", XLabel: "nodes", YLabel: "s",
		Series: []Series{{Label: "A", X: []int{1, 2}, Y: []float64{1.5, 0.75}}},
		Notes:  "note",
	}
	out := fig.Render()
	for _, want := range []string{"FigX: test", "(note)", "A", "1.5000", "0.7500"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

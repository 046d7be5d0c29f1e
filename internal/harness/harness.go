// Package harness regenerates every figure of the paper's evaluation
// (§6): the directive microbenchmarks of Figs. 6–7 and the application
// execution times of Figs. 8–11, plus the acceptance matrices. Every
// point of a figure is a Cell run by the one cell runner (Cell.RunWith),
// the runner the matrices and the fleet service use. A figure is
// produced as labelled series over the node counts, formatted as the
// text tables EXPERIMENTS.md records.
package harness

import (
	"fmt"
	"strings"

	"parade/internal/obs"
	"parade/internal/sim"
)

// ObsFunc receives the observability metrics of one cluster run while a
// figure is regenerated: the series label ("ParADE", "1Thread-2CPU", ...),
// the node count, and the run's metrics. A nil ObsFunc disables
// observability entirely (every run keeps the zero-overhead path).
type ObsFunc func(series string, nodes int, m *obs.Metrics)

// Series is one line of a figure: Y values (seconds or microseconds)
// over the X axis (node counts).
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Figure is one reproduced evaluation artifact.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// DefaultNodes is the paper's cluster sweep (up to its 8 SMP nodes).
var DefaultNodes = []int{1, 2, 4, 8}

// figureDecl declares one data figure: every series is one Cell, run at
// each node count of the sweep with Nodes filled in. The kernel time of
// each run, in unit, is the point's y value. A figure whose cells carry
// a Scale gets its problem's description appended to the title.
type figureDecl struct {
	id, title, yLabel, notes string
	unit                     sim.Duration
	series                   []seriesDecl
	// byX runs every series at one node count before the next (Figs. 6–7
	// compare the two systems point by point); otherwise each series
	// sweeps the node counts in turn. It fixes the order an ObsFunc sees.
	byX bool
}

type seriesDecl struct {
	label string
	cell  Cell
}

// directiveFigure is Fig. 6 or 7: one directive, ParADE against KDSM,
// one thread per node.
func directiveFigure(id, directive string) figureDecl {
	return figureDecl{
		id:     id,
		title:  "Performance comparison of the " + directive + " directive between ParADE and KDSM",
		yLabel: "time per directive (us)", unit: sim.Microsecond,
		notes: fmt.Sprintf("%d repetitions per point; 1 thread per node, cLAN VIA fabric", MicroReps),
		series: []seriesDecl{
			{"ParADE", Cell{App: directive, Mode: "hybrid"}},
			{"KDSM", Cell{App: directive, Mode: "sdsm"}},
		},
		byX: true,
	}
}

// appFigure is one of Figs. 8–11: one kernel at scale under the paper's
// three thread/CPU configurations.
func appFigure(id, title, app, scale string) figureDecl {
	return figureDecl{
		id: id, title: title,
		yLabel: "execution time (s)", unit: sim.Second,
		notes: "cLAN VIA fabric; kernel (timed-region) execution time",
		series: []seriesDecl{
			{"1Thread-1CPU", Cell{App: app, Mode: "hybrid", CPUsPerNode: 1, Scale: scale}},
			{"1Thread-2CPU", Cell{App: app, Mode: "hybrid", Scale: scale}},
			{"2Thread-2CPU", Cell{App: app, Mode: "hybrid", ThreadsPerNode: 2, Scale: scale}},
		},
	}
}

// figures declares the data figures 6..11 at the given scale.
func figures(scale string) []figureDecl {
	return []figureDecl{
		directiveFigure("Fig6", "critical"),
		directiveFigure("Fig7", "single"),
		appFigure("Fig8", "Execution time of the CG kernel on cLAN", "cg", scale),
		appFigure("Fig9", "Execution time of the EP kernel on cLAN", "ep", scale),
		appFigure("Fig10", "Execution time of the Helmholtz program on cLAN", "helmholtz", scale),
		appFigure("Fig11", "Execution time of the MD program on cLAN", "md", scale),
	}
}

// ByID regenerates a figure by its number (6..11) at scale: ScaleBench,
// ScalePaper, or "" for the matrix size. The scale sizes Figs. 8–11;
// Figs. 6–7 have one size.
func ByID(id int, nodes []int, scale string) (Figure, error) {
	return ByIDObserved(id, nodes, scale, nil)
}

// ByIDObserved regenerates a figure with observability attached to every
// run: obsFn receives each run's metrics as the sweep progresses. A nil
// obsFn is ByID. Only the requested figure is checked, and before its
// first run: the scale first, apart from the node counts (so ByID(id,
// nil, scale) checks it without running anything), then every point.
func ByIDObserved(id int, nodes []int, scale string, obsFn ObsFunc) (Figure, error) {
	decls := figures(scale)
	if id < 6 || id >= 6+len(decls) {
		return Figure{}, fmt.Errorf("harness: no figure %d (data figures are 6..11)", id)
	}
	d := decls[id-6]
	if err := checkScale(d, decls); err != nil {
		return Figure{}, err
	}
	for _, sd := range d.series {
		for _, n := range nodes {
			c := sd.cell
			c.Nodes = n
			if err := c.Validate(); err != nil {
				return Figure{}, err
			}
		}
	}

	fig := Figure{ID: d.id, Title: d.title, XLabel: "nodes", YLabel: d.yLabel, Notes: d.notes}
	if c := d.series[0].cell; c.Scale != "" {
		app, _ := MatrixAppByName(c.App)
		prob, _ := app.Problem(c.Scale)
		fig.Title += " (" + prob.Desc + ")"
	}
	for _, sd := range d.series {
		fig.Series = append(fig.Series, Series{Label: sd.label,
			X: append([]int(nil), nodes...), Y: make([]float64, len(nodes))})
	}
	point := func(s, x int) error {
		c := d.series[s].cell
		c.Nodes = nodes[x]
		cfg, err := c.BuildConfig()
		if err != nil {
			return err
		}
		var rec *obs.Recorder
		if obsFn != nil {
			rec = obs.New(cfg.Nodes)
			cfg.Obs = rec
		}
		run, err := c.RunWith(cfg)
		if err != nil {
			return fmt.Errorf("%s %s at %d nodes: %w", d.id, d.series[s].label, c.Nodes, err)
		}
		if obsFn != nil {
			obsFn(d.series[s].label, c.Nodes, rec.Metrics())
		}
		fig.Series[s].Y[x] = float64(run.Kernel) / float64(d.unit)
		return nil
	}
	outer, inner := len(d.series), len(nodes)
	if d.byX {
		outer, inner = inner, outer
	}
	for i := 0; i < outer; i++ {
		for j := 0; j < inner; j++ {
			s, x := i, j
			if d.byX {
				s, x = j, i
			}
			if err := point(s, x); err != nil {
				return Figure{}, err
			}
		}
	}
	return fig, nil
}

// checkScale reports a scale d cannot be drawn at. An app figure needs a
// size of its own kernel; Figs. 6–7 have one size, so for them the scale
// only has to be a size of some app figure's kernel.
func checkScale(d figureDecl, decls []figureDecl) error {
	sized := []figureDecl{d}
	if d.series[0].cell.Scale == "" {
		sized = decls
	}
	var err error
	for _, o := range sized {
		c := o.series[0].cell
		if c.Scale == "" {
			continue
		}
		app, _ := MatrixAppByName(c.App)
		if _, err = app.Problem(c.Scale); err == nil {
			return nil
		}
	}
	if err != nil {
		return &CellError{Fields: []FieldError{{Field: "scale", Reason: err.Error()}}}
	}
	return nil
}

// Render formats the figure as an aligned text table.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "  (%s)\n", f.Notes)
	}
	fmt.Fprintf(&b, "%-16s", f.XLabel+" \\ "+f.YLabel)
	if len(f.Series) > 0 {
		for _, x := range f.Series[0].X {
			fmt.Fprintf(&b, "%12d", x)
		}
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-16s", s.Label)
		for _, y := range s.Y {
			fmt.Fprintf(&b, "%12.4f", y)
		}
		b.WriteString("\n")
	}
	return b.String()
}
